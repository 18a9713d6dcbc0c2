package channel

// InterferenceField tracks externally-imposed SNR penalties per node —
// the channel-layer model of cross-network interference bursts (a
// co-located WiFi deployment, a jammer, a microwave oven). A burst
// assigns each affected node a penalty in dB; a link's effective SNR is
// reduced by the strongest penalty at either endpoint, since the
// interferer raises the noise floor the receiver integrates over
// regardless of which side is receiving.
//
// Bursts may overlap: per-node penalties stack additively while their
// burst counts overlap, and a node's penalty snaps back to exactly zero
// when its last burst ends, so no floating-point residue survives an
// outage. The zero-penalty fast path is one integer compare, keeping
// the CSI hot path unaffected for scenarios without interference.
type InterferenceField struct {
	penalty []float64 // summed active penalty per node, dB
	bursts  []int     // active burst count per node
	active  int       // nodes with at least one active burst
}

// Reset sizes the field for n nodes and clears every active burst,
// reusing backing storage when the size is unchanged.
func (f *InterferenceField) Reset(n int) {
	if len(f.penalty) != n {
		f.penalty = make([]float64, n)
		f.bursts = make([]int, n)
	} else {
		clear(f.penalty)
		clear(f.bursts)
	}
	f.active = 0
}

// Add imposes db of penalty on node i for the duration of one burst.
func (f *InterferenceField) Add(i int, db float64) {
	if f.bursts[i] == 0 {
		f.active++
	}
	f.bursts[i]++
	f.penalty[i] += db
}

// Remove ends one burst's contribution of db on node i. The penalty
// returns to exactly zero when no bursts remain.
func (f *InterferenceField) Remove(i int, db float64) {
	if f.bursts[i] <= 0 {
		return
	}
	f.bursts[i]--
	if f.bursts[i] == 0 {
		f.active--
		f.penalty[i] = 0
	} else {
		f.penalty[i] -= db
	}
}

// PenaltyDB returns the SNR loss on the link between nodes a and b: the
// larger of the two endpoint penalties, or 0 when neither is inside an
// active burst.
func (f *InterferenceField) PenaltyDB(a, b int) float64 {
	if f.active == 0 {
		return 0
	}
	p := f.penalty[a]
	if q := f.penalty[b]; q > p {
		p = q
	}
	return p
}
