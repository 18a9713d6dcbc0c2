package core

import (
	"repro/internal/channel"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/leach"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/phy"
	"repro/internal/queueing"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/tone"
)

// cluster is one LEACH cluster's run-time state for the current round.
type cluster struct {
	head      *node
	members   []*node
	state     mac.HeadState
	toneEv    sim.EventID
	activeTx  *burst
	collapsed bool // head died mid-round; cluster inert until re-election

	// toneFn is the cluster's reusable tone-pulse handler; toneGen and
	// toneState snapshot the (gen, state) guard for the single pending
	// tone event, so re-arming never allocates a closure.
	toneFn    func()
	toneGen   uint64
	toneState mac.HeadState

	// aggBits is the aggregated payload awaiting base-station forwarding
	// (only used when Config.BaseStationForwarding is on).
	aggBits float64
}

// burst is one in-flight data transmission (possibly joined by colliders
// within the CSMA/CD vulnerable window). Bursts are pooled on the Network
// and carry their event handlers with them, so the steady-state transmit
// path allocates neither bursts nor closures: the handlers read cl/gen
// from the struct, which releaseBurst invalidates before reuse.
type burst struct {
	cl        *cluster
	gen       uint64
	sender    *node
	start     sim.Time
	remaining int
	pktEv     sim.EventID
	pktStart  sim.Time
	pktMode   phy.Mode
	pktCSI    float64
	inFlight  bool

	sendFn    func()
	finishFn  func()
	resolveFn func()
	sendEv    sim.EventID
	released  bool

	colliders    []*node
	colliderJoin []sim.Time
	collisionEv  sim.EventID
	collisionSet bool
}

// acquireBurst takes a burst from the free list (or grows the pool) and
// initializes it for a new transmission. The three event handlers are
// created once per pool entry and read their context from the struct.
func (net *Network) acquireBurst(cl *cluster, n *node, now sim.Time, k int) *burst {
	var tx *burst
	if last := len(net.burstFree) - 1; last >= 0 {
		tx = net.burstFree[last]
		net.burstFree = net.burstFree[:last]
	} else {
		tx = &burst{}
		tx.sendFn = func() { net.sendPacket(tx.cl, tx, tx.gen) }
		tx.finishFn = func() { net.finishPacket(tx.cl, tx, tx.gen) }
		tx.resolveFn = func() { net.resolveCollision(tx.cl, tx, tx.gen) }
	}
	tx.cl = cl
	tx.gen = net.roundGen
	tx.sender = n
	tx.start = now
	tx.remaining = k
	tx.inFlight = false
	tx.released = false
	tx.colliders = tx.colliders[:0]
	tx.colliderJoin = tx.colliderJoin[:0]
	tx.collisionSet = false
	tx.sendEv, tx.pktEv, tx.collisionEv = sim.EventID{}, sim.EventID{}, sim.EventID{}
	return tx
}

// releaseBurst returns a settled burst to the free list, cancelling any
// events that still reference it so a recycled burst can never receive a
// stale callback. Idempotent: failure paths can settle a burst through
// more than one route (e.g. a node death inside a collision resolution),
// and only the first release counts. Field contents are left intact so
// any caller still holding the burst sees consistent (stale) state.
func (net *Network) releaseBurst(tx *burst) {
	if tx.released {
		return
	}
	tx.released = true
	net.eng.Cancel(tx.sendEv)
	net.eng.Cancel(tx.pktEv)
	net.eng.Cancel(tx.collisionEv)
	net.burstFree = append(net.burstFree, tx)
}

// forwarder is one cluster's base-station forwarding chain for one
// round. The chain has exactly one pending event at a time — the next
// tick, or the completion of the transmission a tick started — so its
// two handlers read (cl, gen) and the transmission in flight from the
// record, and the record is reused from link to link. A chain ends when
// an event finds its round over or its head dead, including the stale
// ticks of earlier rounds, which fire as no-ops; the record then returns
// to the Network's free list, the way bursts do.
type forwarder struct {
	cl      *cluster
	gen     uint64
	bits    int
	airtime sim.Time
	tickFn  func()
	doneFn  func()
}

// acquireForward takes a forwarder from the free list (or grows the
// pool) and starts it on cl for the current round.
func (net *Network) acquireForward(cl *cluster) *forwarder {
	var fw *forwarder
	if last := len(net.forwardFree) - 1; last >= 0 {
		fw = net.forwardFree[last]
		net.forwardFree = net.forwardFree[:last]
	} else {
		fw = &forwarder{}
		fw.tickFn = func() { net.forwardTick(fw) }
		fw.doneFn = func() { net.forwardDone(fw) }
	}
	fw.cl = cl
	fw.gen = net.roundGen
	return fw
}

// releaseForward returns an ended chain's record to the free list.
func (net *Network) releaseForward(fw *forwarder) {
	net.forwardFree = append(net.forwardFree, fw)
}

// Network is one simulation run's world — and, through Reset, a reusable
// simulation context: every piece of run state can be rewound in place,
// so a worker that executes a replication grid pays world construction
// once and resets thereafter (see internal/runner's context pool).
type Network struct {
	cfg Config
	eng *sim.Engine
	src *rng.Source

	positions []geom.Point
	nodes     []*node
	aliveMask []bool

	// links is the triangular link matrix: one Link per unordered pair
	// a<b, n(n-1)/2 in all, stored row by row so the pair lives at index
	// linkRow[a]+b. Each is materialized lazily (linkInit) from the
	// pair's deterministic stream. The lookup on the CSI hot path is one
	// table load and an add, and the Link values (with their oscillator
	// records) are reusable storage that Reset simply marks uninitialized.
	links    []channel.Link
	linkInit []bool
	linkRow  []int

	election       *leach.Election
	electionStream rng.Stream
	scratchStream  rng.Stream // transient stream state (placement, link init)
	mobilityStream rng.Stream // move-event scatter draws (world events)

	// interference is the channel-layer penalty field for cross-network
	// interference bursts; interferenceByID remembers which nodes each
	// active burst caught, so the burst-end event releases exactly the
	// penalties its start imposed even if nodes moved in between.
	interference     channel.InterferenceField
	interferenceByID map[uint64][]int

	// sinkDown suspends base-station forwarding while a sink outage
	// world event is in effect (heads keep aggregating).
	sinkDown     bool
	clusters     []*cluster
	clusterPool  []*cluster // reusable cluster slots with their tone closures
	assign       leach.Assignment
	headsBuf     []int
	queueScratch []int
	roundGen     uint64
	rounds       int

	// Reusable handlers and the burst and forwarder free lists: the
	// steady-state event loop schedules only preallocated closures.
	bookkeepingFn sim.Handler
	sampleTickFn  sim.Handler
	startRoundFn  sim.Handler
	burstFree     []*burst
	forwardFree   []*forwarder

	// metrics
	life            *metrics.Lifetime
	thr             metrics.Throughput
	delays          metrics.DelayStats
	fairness        metrics.FairnessProbe
	energySeries    *metrics.TimeSeries
	aliveSeries     *metrics.TimeSeries
	modeCounts      []uint64
	perBound        []float64 // per mode: phy.Mode.PacketErrorBound of the run's packet size
	collisionEvents uint64
	forwardedBits   uint64
	roundStats      []RoundStat
}

// New builds a simulation from the configuration. It panics on an invalid
// configuration (use Config.Validate to check first when the values come
// from user input).
func New(cfg Config) *Network {
	net := &Network{}
	net.init(cfg)
	return net
}

// Reset rewinds the Network in place to the state New(cfg) would build,
// reusing node structs, stream allocations, arenas, free lists, the link
// matrix, and metric storage. A Reset-then-Run is bit-identical to a
// fresh New-then-Run for the same configuration: every random stream is
// rewound to its deterministic origin and event ordering depends only on
// times and scheduling order, never on recycled slot identities.
//
// The previous run's Result stays valid: anything a Result references is
// either copied at build time or (the two time series) handed over —
// Reset allocates fresh series rather than truncating the old ones.
func (net *Network) Reset(cfg Config) {
	net.init(cfg)
}

// init is the shared construction/reset path. Every field of the
// Network is either rewound in place (keeping its backing storage) or
// rebuilt when the configuration shape (node count, mode table) changed.
func (net *Network) init(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	net.cfg = cfg
	if net.eng == nil {
		net.eng = sim.NewEngine()
	} else {
		net.eng.Reset()
	}
	if net.src == nil {
		net.src = rng.NewSource(cfg.Seed)
	} else {
		net.src.Reseed(cfg.Seed)
	}

	// Metrics. The finished run's series were handed to its Result, so
	// they get fresh objects; everything else rewinds in place.
	if net.life == nil {
		net.life = metrics.NewLifetime(cfg.Nodes)
	} else {
		net.life.Reset(cfg.Nodes)
	}
	net.energySeries = metrics.NewTimeSeries("avg-remaining-energy-J")
	net.aliveSeries = metrics.NewTimeSeries("nodes-alive")
	net.thr = metrics.Throughput{}
	net.delays = metrics.DelayStats{}
	net.fairness = metrics.FairnessProbe{}
	if cap(net.modeCounts) >= cfg.Modes.Len() {
		net.modeCounts = net.modeCounts[:cfg.Modes.Len()]
		clear(net.modeCounts)
	} else {
		net.modeCounts = make([]uint64, cfg.Modes.Len())
	}
	net.perBound = net.perBound[:0]
	for i := 0; i < cfg.Modes.Len(); i++ {
		net.perBound = append(net.perBound, cfg.Modes.Mode(i).PacketErrorBound(cfg.PacketSizeBits))
	}
	net.collisionEvents = 0
	net.forwardedBits = 0
	net.roundStats = net.roundStats[:0]
	net.roundGen = 0
	net.rounds = 0
	net.clusters = net.clusters[:0]

	// Geometry and per-node state.
	field := geom.Field{Width: cfg.FieldWidth, Height: cfg.FieldHeight}
	net.src.InitStream(&net.scratchStream, "placement", 0)
	net.positions = geom.PlaceUniformInto(net.positions, field, cfg.Nodes, &net.scratchStream)
	if cap(net.aliveMask) >= cfg.Nodes {
		net.aliveMask = net.aliveMask[:cfg.Nodes]
	} else {
		net.aliveMask = make([]bool, cfg.Nodes)
	}
	if len(net.nodes) != cfg.Nodes {
		net.nodes = make([]*node, cfg.Nodes)
		for i := range net.nodes {
			net.nodes[i] = &node{
				idx:           i,
				backoffStream: &rng.Stream{},
				perStream:     &rng.Stream{},
				csiStream:     &rng.Stream{},
				arrivalStream: &rng.Stream{},
			}
		}
	}
	for i, n := range net.nodes {
		initialJ := cfg.InitialEnergyJ
		if len(cfg.NodeEnergyJ) == cfg.Nodes {
			initialJ = cfg.NodeEnergyJ[i]
		}
		rate := cfg.ArrivalRatePerSecond
		if len(cfg.NodeArrivalRate) == cfg.Nodes {
			rate = cfg.NodeArrivalRate[i]
		}
		net.src.InitStream(n.backoffStream, "backoff", uint64(i))
		net.src.InitStream(n.perStream, "per", uint64(i))
		net.src.InitStream(n.csiStream, "csinoise", uint64(i))
		net.src.InitStream(n.arrivalStream, "arrival", uint64(i))
		if n.battery == nil {
			n.battery = energy.NewBattery(initialJ)
			n.buf = queueing.NewBuffer(cfg.BufferCapacity)
			n.adjust = queueing.NewThresholdAdjuster(cfg.Adjust)
			n.source = queueing.NewPoissonSource(rate, cfg.PacketSizeBits, i, n.arrivalStream)
			n.arrivalFn = func() { net.onArrival(n) }
			n.backoffFn = func() { net.onBackoffExpire(n, n.backoffCl, n.backoffGen) }
		} else {
			n.battery.Reset(initialJ)
			n.buf.Reset(cfg.BufferCapacity)
			n.adjust.Reset(cfg.Adjust)
			n.source.Reset(rate, cfg.PacketSizeBits)
		}
		n.pos = net.positions[i]
		n.counters = mac.Counters{}
		n.state = mac.SensorSleep
		n.isHead = false
		n.clusterIdx = -1
		n.sensingSince = 0
		n.lastAccrual = 0
		n.diedAt = 0
		n.arrivalEv, n.backoffEv = sim.EventID{}, sim.EventID{}
		n.saturated, n.nextArrival = false, 0
		n.backoffCl, n.backoffGen = nil, 0
		n.alive = true
		n.serviceShare = 0
		net.aliveMask[i] = true
	}

	if net.bookkeepingFn == nil {
		net.bookkeepingFn = net.bookkeeping
		net.sampleTickFn = net.sampleTick
		net.startRoundFn = net.startRound
	}

	net.src.InitStream(&net.mobilityStream, "mobility", 0)
	net.interference.Reset(cfg.Nodes)
	clear(net.interferenceByID)
	net.sinkDown = false

	net.src.InitStream(&net.electionStream, "election", 0)
	ecfg := leach.Config{HeadFraction: cfg.HeadFraction, Nodes: cfg.Nodes}
	if net.election == nil {
		net.election = leach.NewElection(ecfg, &net.electionStream)
	} else {
		net.election.Reset(ecfg, &net.electionStream)
	}

	if len(net.linkRow) != cfg.Nodes {
		n := cfg.Nodes
		net.links = make([]channel.Link, n*(n-1)/2)
		net.linkInit = make([]bool, len(net.links))
		net.linkRow = make([]int, n)
		// Row a holds pairs (a, a+1) … (a, n-1) and starts where rows
		// 0 … a-1 end, so pair (a, b) sits b-a-1 slots into it.
		start := 0
		for a := range net.linkRow {
			net.linkRow[a] = start - a - 1
			start += n - 1 - a
		}
	} else {
		clear(net.linkInit)
	}
}

// pairKey identifies the unordered node pair; it names the pair's RNG
// stream, so link realizations are a pure function of (seed, pair).
func pairKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// linkFor returns (materializing on first use) the channel between two
// distinct nodes, a direct index into the triangular link matrix. The
// link realization is a deterministic function of the pair and the master
// seed, so re-clustering — or a context reset — reproduces the same
// channel.
func (net *Network) linkFor(a, b int) *channel.Link {
	if a > b {
		a, b = b, a
	}
	idx := net.linkRow[a] + b
	l := &net.links[idx]
	if !net.linkInit[idx] {
		net.linkInit[idx] = true
		d := net.positions[a].Distance(net.positions[b])
		net.src.InitStream(&net.scratchStream, "link", pairKey(a, b))
		l.Reseed(net.cfg.Channel, d, &net.scratchStream)
	}
	return l
}

// resetLinks discards every cached link realization; links re-materialize
// lazily from their per-pair streams (used when a world event mutates the
// propagation parameters).
func (net *Network) resetLinks() {
	clear(net.linkInit)
}

// resetLinksOf discards the cached link realizations touching node i —
// the per-row analogue of resetLinks, used when a mobility event moves a
// single node: only its links changed distance, so only they
// re-materialize (from the same per-pair streams, at the new geometry).
func (net *Network) resetLinksOf(i int) {
	row := net.linkRow[i]
	clear(net.linkInit[row+i+1 : row+len(net.linkRow)])
	for a := 0; a < i; a++ {
		net.linkInit[net.linkRow[a]+i] = false
	}
}

// snrBetween returns the effective data-channel SNR between two nodes at
// now: the link's propagation state minus any active interference
// penalty at either endpoint.
func (net *Network) snrBetween(a, b int, now sim.Time) float64 {
	snr := net.linkFor(a, b).SNRdB(now)
	if p := net.interference.PenaltyDB(a, b); p != 0 {
		snr -= p
	}
	return snr
}

// Run executes the simulation and returns the collected results.
func (net *Network) Run() Result {
	now := net.eng.Now()
	if now != 0 {
		panic("netsim: Run called twice")
	}
	// Initial samples, arrivals, bookkeeping, and the first round.
	net.sample()
	for _, n := range net.nodes {
		net.scheduleArrival(n)
	}
	// The scenario timeline: world events are scheduled before the first
	// protocol event fires, so their places in the engine's scheduling
	// order — and with them the whole event interleaving — are a pure
	// function of Config.
	world := &World{net: net}
	for i := range net.cfg.World {
		ev := net.cfg.World[i]
		net.eng.ScheduleAt(ev.At, func() { ev.Apply(world) })
	}
	net.eng.Schedule(net.cfg.BookkeepingInterval, net.bookkeepingFn)
	net.eng.Schedule(net.cfg.SampleInterval, net.sampleTickFn)
	net.startRound()
	net.eng.Run(net.cfg.Horizon)

	end := net.eng.Now()
	for _, n := range net.nodes {
		net.catchUp(n)
		n.accrue(net, end)
	}
	return net.buildResult(end)
}

// ---------------------------------------------------------------------------
// Rounds and clustering

func (net *Network) startRound() {
	now := net.eng.Now()
	net.roundGen++
	net.rounds++

	// Close out the previous round: abort in-flight bursts (no retry
	// penalty — the epoch change, not the channel, interrupted them) and
	// settle all dwell energy under the old roles.
	for _, cl := range net.clusters {
		if cl.activeTx != nil {
			net.settlePartialTx(cl, now)
		}
		net.eng.Cancel(cl.toneEv)
	}
	for _, n := range net.nodes {
		n.accrue(net, now)
		net.eng.Cancel(n.backoffEv)
	}
	// The settle above belongs to the finished round; close its ledger
	// before anything attributable to the new round happens (the head
	// flushes below count as new-round deliveries).
	net.closeRoundStats(now)

	if net.life.Alive() == 0 {
		net.eng.Stop()
		return
	}

	heads := net.election.ElectInto(net.headsBuf[:0], net.aliveMask)
	net.headsBuf = heads
	leach.AssignInto(&net.assign, heads, net.positions, net.aliveMask)
	assign := &net.assign

	// Clusters are pooled: each slot carries its tone closure for life,
	// and every per-round field is re-initialized on reuse, so round
	// turnover costs no allocations once the pool covers the head count.
	for len(net.clusterPool) < len(heads) {
		cl := &cluster{}
		cl.toneFn = func() { net.onTonePulse(cl, cl.toneGen, cl.toneState) }
		net.clusterPool = append(net.clusterPool, cl)
	}
	net.clusters = net.clusters[:0]
	for c, h := range heads {
		cl := net.clusterPool[c]
		cl.head = net.nodes[h]
		cl.members = cl.members[:0]
		cl.state = mac.HeadIdle
		cl.toneEv = sim.EventID{}
		cl.activeTx = nil
		cl.collapsed = false
		cl.aggBits = 0
		net.clusters = append(net.clusters, cl)
	}
	net.roundStats = append(net.roundStats, RoundStat{
		Index:          net.rounds - 1,
		Start:          now,
		Heads:          len(heads),
		AliveAtStart:   net.life.Alive(),
		deliveredBase:  net.thr.Delivered(),
		consumedBaseJ:  net.totalConsumed(),
		collisionsBase: net.collisionEvents,
	})
	for i, n := range net.nodes {
		if !n.alive {
			n.clusterIdx = -1
			continue
		}
		c := assign.ClusterOf[i]
		n.clusterIdx = c
		wasHead := n.isHead
		n.isHead = assign.HeadOf(i) == i
		_ = wasHead
		if n.isHead {
			n.state = mac.SensorSleep // sensor FSM suspended while head
			net.flushHeadBuffer(n, now)
		} else {
			net.clusters[c].members = append(net.clusters[c].members, n)
			if net.cfg.MAC.BurstSize(n.buf.Len()) > 0 {
				n.state = mac.SensorSensing
				n.sensingSince = now
			} else {
				n.state = mac.SensorSleep
			}
		}
	}
	net.emit(TraceRound, -1, len(heads), "")
	for _, cl := range net.clusters {
		net.scheduleTone(cl, 1*sim.Millisecond)
		if net.cfg.BaseStationForwarding {
			net.eng.Schedule(net.cfg.ForwardInterval, net.acquireForward(cl).tickFn)
		}
	}
	net.eng.Schedule(net.cfg.RoundLength, net.startRoundFn)
}

// forwardTick is the base-station forwarding extension (§III.A's transmit
// state, which the paper defines but defers): when the data channel is
// idle and aggregated data is pending, the head occupies the channel —
// advertising transmit tone pulses — for the airtime of the aggregate at
// the top ABICM class. The head→BS link is provisioned infrastructure and
// assumed to sustain the highest mode.
func (net *Network) forwardTick(fw *forwarder) {
	cl := fw.cl
	if fw.gen != net.roundGen || cl.collapsed || !cl.head.alive {
		net.releaseForward(fw)
		return
	}
	now := net.eng.Now()
	if net.sinkDown || cl.state != mac.HeadIdle || cl.activeTx != nil || cl.aggBits < 1 {
		// Sink outage, busy, or nothing worth a transmission yet. During
		// an outage the aggregate keeps accumulating and the tick polls
		// at the unhurried interval; the first tick after recovery
		// flushes the backlog.
		if !net.sinkDown && cl.aggBits >= 1 {
			net.eng.Schedule(50*sim.Millisecond, fw.tickFn)
		} else {
			net.eng.Schedule(net.cfg.ForwardInterval, fw.tickFn)
		}
		return
	}
	cl.head.accrue(net, now)
	if !cl.head.alive {
		net.releaseForward(fw)
		return
	}
	fw.bits = int(cl.aggBits + 0.5)
	cl.aggBits = 0
	fw.airtime = net.cfg.Modes.Highest().Airtime(fw.bits)
	cl.state = mac.HeadTransmit
	net.scheduleTone(cl, 500*sim.Microsecond)
	net.eng.Schedule(fw.airtime, fw.doneFn)
}

// forwardDone completes a base-station transmission started by
// forwardTick: the head pays for the airtime, and the next tick is
// scheduled.
func (net *Network) forwardDone(fw *forwarder) {
	cl := fw.cl
	if fw.gen != net.roundGen || cl.collapsed || !cl.head.alive {
		net.releaseForward(fw)
		return
	}
	end := net.eng.Now()
	cl.head.accrue(net, end)
	if !cl.head.alive {
		net.releaseForward(fw)
		return
	}
	if !cl.head.battery.DrawPower(energy.DataTx, net.cfg.Device.DataTxPower, fw.airtime) {
		net.nodeDied(cl.head, end)
		net.releaseForward(fw)
		return
	}
	net.forwardedBits += uint64(fw.bits)
	cl.state = mac.HeadIdle
	net.scheduleTone(cl, 1*sim.Millisecond)
	net.eng.Schedule(net.cfg.ForwardInterval, fw.tickFn)
}

// accumulateAggregate records delivered payload for later base-station
// forwarding (extension only; a no-op when forwarding is off).
func (net *Network) accumulateAggregate(cl *cluster, sizeBits int) {
	if net.cfg.BaseStationForwarding && cl != nil {
		cl.aggBits += float64(sizeBits) * net.cfg.AggregationRatio
	}
}

// totalConsumed sums consumption over all nodes (round accounting).
func (net *Network) totalConsumed() float64 {
	var sum float64
	for _, n := range net.nodes {
		sum += n.battery.Consumed()
	}
	return sum
}

// closeRoundStats finalizes the most recent round's deltas at time now.
func (net *Network) closeRoundStats(now sim.Time) {
	if len(net.roundStats) == 0 {
		return
	}
	rs := &net.roundStats[len(net.roundStats)-1]
	if rs.closed {
		return
	}
	rs.closed = true
	rs.End = now
	rs.Delivered = net.thr.Delivered() - rs.deliveredBase
	rs.ConsumedJ = net.totalConsumed() - rs.consumedBaseJ
	rs.Collisions = net.collisionEvents - rs.collisionsBase
}

// flushHeadBuffer delivers a newly elected head's queued packets locally:
// the node that buffered them has become the sink, so the data has reached
// its destination without further radio work.
func (net *Network) flushHeadBuffer(n *node, now sim.Time) {
	net.catchUp(n)
	for {
		p, ok := n.buf.Dequeue()
		if !ok {
			break
		}
		net.thr.PacketDelivered(p.SizeBits)
		net.delays.Observe(now - p.CreatedAt)
		n.serviceShare++
	}
	n.adjust.OnServiced(0)
}

// settlePartialTx charges the airtime consumed by an interrupted burst and
// releases the sender(s) without retry penalties.
func (net *Network) settlePartialTx(cl *cluster, now sim.Time) {
	tx := cl.activeTx
	if tx == nil {
		return
	}
	// Event cancellation is releaseBurst's job (it cancels all three
	// tracked events before the slot can be recycled).
	if tx.inFlight {
		net.chargeTxAirtime(tx.sender, tx.pktStart, now, tx.pktMode)
	}
	if tx.sender.alive && tx.sender.state == mac.SensorTransmit {
		tx.sender.state = mac.SensorSleep
	}
	for _, col := range tx.colliders {
		if col.alive && col.state == mac.SensorTransmit {
			col.state = mac.SensorSleep
		}
	}
	cl.activeTx = nil
	net.releaseBurst(tx)
}

// chargeTxAirtime bills a sender's data radio for time actually on air.
func (net *Network) chargeTxAirtime(n *node, from, to sim.Time, _ phy.Mode) {
	if to <= from || !n.alive {
		return
	}
	if !n.battery.DrawPower(energy.DataTx, net.cfg.Device.DataTxPower, to-from) {
		net.nodeDied(n, to)
	}
}

// ---------------------------------------------------------------------------
// Traffic arrivals
//
// Arrivals are first-class events: they run ahead of every protocol event
// due in the same microsecond. That order makes it exact to stop
// simulating the arrivals a full buffer drops. When an untraced arrival
// finds its node's buffer full, the node turns saturated: it draws its
// next gap as usual but schedules nothing, and only remembers the time.
// Every change that could let an arrival in again — a slot freed by a
// delivery or a drop, election as head, death, a rate change, the end of
// the run — is made by an ordinary event, and calls catchUp first. The
// arrivals due at or before that event's time are then exactly the ones
// the eager chain would already have run against the full buffer.
// Traced runs keep the eager chain, so their drop rows appear in time
// order; they are the reference the elided runs are tested against.

func (net *Network) scheduleArrival(n *node) {
	if !n.source.Active() || !n.alive {
		return
	}
	gap := n.source.NextInterarrival()
	n.arrivalEv = net.eng.ScheduleFirst(gap, n.arrivalFn)
}

// catchUp settles a saturated node's elided arrivals. Each one due at or
// before now counts as generated and dropped, drawing the same gaps from
// the node's private arrival stream the eager chain would have drawn. A
// node that lives on then schedules its first later arrival as a real
// event. It must be called from an ordinary event or after the run.
func (net *Network) catchUp(n *node) {
	if !n.saturated {
		return
	}
	n.saturated = false
	now := net.eng.Now()
	for n.nextArrival <= now {
		net.thr.PacketGenerated()
		net.thr.PacketDroppedBuffer()
		n.nextArrival += n.source.NextInterarrival()
	}
	if n.alive {
		n.arrivalEv = net.eng.ScheduleFirst(n.nextArrival-now, n.arrivalFn)
	}
}

func (net *Network) onArrival(n *node) {
	if !n.alive {
		return
	}
	now := net.eng.Now()
	p := n.source.Generate(now)
	net.thr.PacketGenerated()
	if n.isHead {
		// The sink itself sensed the data: delivered on the spot.
		net.thr.PacketDelivered(p.SizeBits)
		n.serviceShare++
		if n.clusterIdx >= 0 && n.clusterIdx < len(net.clusters) {
			net.accumulateAggregate(net.clusters[n.clusterIdx], p.SizeBits)
		}
	} else if n.buf.Enqueue(p) {
		n.adjust.OnArrival(n.buf.Len())
		if n.state == mac.SensorSleep && n.clusterIdx >= 0 &&
			net.cfg.MAC.BurstSize(n.buf.Len()) > 0 {
			cl := net.clusters[n.clusterIdx]
			if !cl.collapsed && cl.head.alive {
				n.accrue(net, now)
				if n.alive {
					n.state = mac.SensorSensing
					n.sensingSince = now
				}
			}
		}
	} else {
		net.thr.PacketDroppedBuffer()
		if net.cfg.Trace == nil {
			n.saturated = true
			n.nextArrival = now + n.source.NextInterarrival()
			return
		}
		net.emit(TraceDrop, n.idx, 0, "buffer")
	}
	net.scheduleArrival(n)
}

// ---------------------------------------------------------------------------
// Tone channel

// scheduleTone arms the cluster's tone-pulse chain for its current state,
// first pulse after the given delay. The (gen, state) guard for the single
// pending tone event is snapshotted on the cluster, which is safe because
// the previous event is always cancelled first.
func (net *Network) scheduleTone(cl *cluster, delay sim.Time) {
	net.eng.Cancel(cl.toneEv)
	cl.toneGen = net.roundGen
	cl.toneState = cl.state
	cl.toneEv = net.eng.Schedule(delay, cl.toneFn)
}

func (net *Network) onTonePulse(cl *cluster, gen uint64, state mac.HeadState) {
	if gen != net.roundGen || cl.collapsed || cl.state != state || !cl.head.alive {
		return
	}
	now := net.eng.Now()
	var tst tone.State
	switch state {
	case mac.HeadIdle:
		tst = tone.Idle
	case mac.HeadReceive:
		tst = tone.Receive
	case mac.HeadTransmit:
		tst = tone.Transmit
	default:
		return
	}
	pat := net.cfg.Tone.Pattern(tst)
	if !cl.head.battery.Draw(energy.ToneTx, net.cfg.Device.ToneTxPower*pat.Duration.Seconds()) {
		net.nodeDied(cl.head, now)
		return
	}
	if state == mac.HeadIdle {
		net.contend(cl)
	}
	if gen == net.roundGen && !cl.collapsed && cl.state == state {
		net.scheduleTone(cl, pat.Interval)
	}
}

// estimateCSI returns the data-channel CSI a sensor infers from the tone
// pulse it just received: the true reciprocal SNR, an optional Gaussian
// estimation error (Config.CSINoiseSigmaDB), and the estimator's
// calibration/quantization.
func (net *Network) estimateCSI(n *node, cl *cluster, now sim.Time) float64 {
	snr := net.snrBetween(n.idx, cl.head.idx, now)
	if net.cfg.CSINoiseSigmaDB > 0 {
		snr += net.cfg.CSINoiseSigmaDB * n.csiStream.NormFloat64()
	}
	return net.cfg.CSI.Estimate(snr)
}

// contend runs the idle-tone contention scan: every sensing member that
// has completed its sensing delay, holds a minimum burst, and (per its
// policy) sees adequate CSI enters backoff.
func (net *Network) contend(cl *cluster) {
	now := net.eng.Now()
	for _, n := range cl.members {
		if !n.alive || n.state != mac.SensorSensing {
			continue
		}
		if now-n.sensingSince < net.cfg.MAC.SensingDelay {
			continue
		}
		k := net.cfg.MAC.BurstSize(n.buf.Len())
		if k == 0 {
			continue
		}
		class, check := n.currentThresholdClass(net)
		if check {
			if net.estimateCSI(n, cl, now) < net.cfg.Modes.ThresholdForClass(class) {
				n.counters.DeferralsCSI++
				net.emit(TraceDeferral, n.idx, class, "csi")
				continue
			}
		}
		retries := 0
		if head := n.buf.Head(); head != nil {
			retries = head.Retries
		}
		d := net.cfg.MAC.Backoff(retries, n.backoffStream)
		n.state = mac.SensorBackoff
		// At most one backoff event is pending per node, so the handler's
		// context can live on the node instead of in a fresh closure.
		n.backoffCl = cl
		n.backoffGen = net.roundGen
		n.backoffEv = net.eng.Schedule(d, n.backoffFn)
	}
}

func (net *Network) onBackoffExpire(n *node, cl *cluster, gen uint64) {
	if gen != net.roundGen || !n.alive || n.state != mac.SensorBackoff || cl.collapsed {
		return
	}
	now := net.eng.Now()
	if !cl.head.alive {
		n.state = mac.SensorSleep
		return
	}
	if tx := cl.activeTx; tx != nil {
		if now-tx.start < net.cfg.DetectWindow {
			net.joinCollision(cl, n, now)
		} else {
			// The receive tone has been heard: stand down.
			n.counters.DeferralsBusy++
			net.emit(TraceDeferral, n.idx, 0, "busy")
			n.state = mac.SensorSensing
			n.sensingSince = now - net.cfg.MAC.SensingDelay // already synchronized
		}
		return
	}
	if cl.state != mac.HeadIdle {
		n.counters.DeferralsBusy++
		net.emit(TraceDeferral, n.idx, 0, "busy")
		n.state = mac.SensorSensing
		n.sensingSince = now - net.cfg.MAC.SensingDelay
		return
	}
	// Re-verify the CSI after the backoff (§III.B: both conditions must
	// still hold).
	k := net.cfg.MAC.BurstSize(n.buf.Len())
	if k == 0 {
		n.state = mac.SensorSleep
		return
	}
	class, check := n.currentThresholdClass(net)
	if check {
		if net.estimateCSI(n, cl, now) < net.cfg.Modes.ThresholdForClass(class) {
			n.counters.DeferralsCSI++
			net.emit(TraceDeferral, n.idx, class, "csi")
			n.state = mac.SensorSensing
			n.sensingSince = now - net.cfg.MAC.SensingDelay
			return
		}
	}
	net.startBurst(cl, n, k)
}

// ---------------------------------------------------------------------------
// Data bursts

func (net *Network) startBurst(cl *cluster, n *node, k int) {
	now := net.eng.Now()
	n.accrue(net, now)
	if !n.alive {
		return
	}
	// Data radio wake-up: the startup cost the min-burst rule amortizes.
	if !n.battery.Draw(energy.DataStartup, net.cfg.Device.StartupEnergy()) {
		net.nodeDied(n, now)
		return
	}
	n.state = mac.SensorTransmit
	n.counters.Attempts++
	net.emit(TraceBurstStart, n.idx, k, "")
	net.emit(TraceSensorState, n.idx, 0, mac.SensorTransmit.String())

	cl.head.accrue(net, now)
	if !cl.head.alive {
		return
	}
	cl.state = mac.HeadReceive
	net.emit(TraceHeadState, cl.head.idx, 0, mac.HeadReceive.String())
	tx := net.acquireBurst(cl, n, now, k)
	cl.activeTx = tx
	net.scheduleTone(cl, 500*sim.Microsecond) // receive-tone chain
	tx.sendEv = net.eng.Schedule(net.cfg.Device.DataStartupTime, tx.sendFn)
}

func (net *Network) sendPacket(cl *cluster, tx *burst, gen uint64) {
	if gen != net.roundGen || cl.activeTx != tx || tx.collisionSet {
		return
	}
	n := tx.sender
	if !n.alive || !cl.head.alive {
		return
	}
	now := net.eng.Now()
	pkt := n.buf.Head()
	if pkt == nil {
		net.finishBurst(cl, tx, true)
		return
	}
	// The receive tones (every 10 ms) let the sender re-adapt its error
	// protection per packet: mode selection uses the true instantaneous
	// CSI (§III.A assumption 3 keeps it constant over the packet).
	csi := net.snrBetween(n.idx, cl.head.idx, now)
	mode, ok := net.cfg.Modes.PickMode(csi)
	if !ok {
		// Below the lowest class. CAEM policies only reach here when the
		// channel degraded after admission; pure LEACH reaches here
		// routinely because it never checked. Transmit at the most
		// robust mode and let the error model decide.
		mode = net.cfg.Modes.Lowest()
	}
	tx.pktStart = now
	tx.pktMode = mode
	tx.pktCSI = csi
	tx.inFlight = true
	airtime := mode.Airtime(pkt.SizeBits)
	tx.pktEv = net.eng.Schedule(airtime, tx.finishFn)
}

func (net *Network) finishPacket(cl *cluster, tx *burst, gen uint64) {
	if gen != net.roundGen || cl.activeTx != tx || tx.collisionSet {
		return
	}
	n := tx.sender
	now := net.eng.Now()
	tx.inFlight = false

	// Sender: airtime + FEC encode. Head: decode (its Rx radio power is
	// accrued by headDwell while in HeadReceive).
	net.chargeTxAirtime(n, tx.pktStart, now, tx.pktMode)
	if !n.alive {
		net.abortBurst(cl, tx, now)
		return
	}
	pkt := n.buf.Head()
	if pkt == nil {
		net.finishBurst(cl, tx, true)
		return
	}
	if !n.battery.Draw(energy.Codec, net.cfg.Codec.EncodeEnergy(tx.pktMode, pkt.SizeBits)) {
		net.nodeDied(n, now)
		net.abortBurst(cl, tx, now)
		return
	}
	cl.head.accrue(net, now)
	if !cl.head.alive {
		net.abortBurst(cl, tx, now)
		return
	}
	if !cl.head.battery.Draw(energy.Codec, net.cfg.Codec.DecodeEnergy(tx.pktMode, pkt.SizeBits)) {
		net.nodeDied(cl.head, now)
		net.abortBurst(cl, tx, now)
		return
	}

	// The draw decides first. A packet whose CSI the mode admits fails
	// with at most the mode's bound, so a draw at or above the bound is a
	// delivery whatever the exact probability; the erfc/exp tower behind
	// PacketErrorProb runs only for a draw below the bound, or for a
	// packet sent below the lowest class.
	u := n.perStream.Float64()
	if (u < net.perBound[tx.pktMode.Index] || tx.pktCSI < tx.pktMode.ThresholdSNRdB) &&
		u < tx.pktMode.PacketErrorProb(tx.pktCSI, pkt.SizeBits) {
		// Corrupted at the head: it answers with a collision tone
		// (§III.A rule 3 — corruption and collision are indistinguishable
		// to it), and the sender aborts the burst.
		n.counters.ChannelFails++
		net.emit(TraceChannelFail, n.idx, tx.pktMode.Index, "")
		pkt.Retries++
		if net.cfg.MAC.ShouldDrop(pkt.Retries) {
			net.catchUp(n)
			n.buf.DropHead()
			net.thr.PacketDroppedRetry()
			n.counters.RetryDrops++
			net.emit(TraceDrop, n.idx, 0, "retry")
		}
		net.chargeCollisionTone(cl, now)
		net.abortBurst(cl, tx, now)
		return
	}

	// Delivered.
	net.catchUp(n)
	p, _ := n.buf.Dequeue()
	net.thr.PacketDelivered(p.SizeBits)
	net.accumulateAggregate(cl, p.SizeBits)
	net.emit(TraceDelivered, n.idx, tx.pktMode.Index, "")
	net.delays.Observe(now - p.CreatedAt)
	n.counters.PacketsSent++
	n.serviceShare++
	net.modeCounts[tx.pktMode.Index]++
	tx.remaining--
	if tx.remaining > 0 && n.buf.Len() > 0 {
		net.sendPacket(cl, tx, gen)
		return
	}
	n.counters.BurstsDone++
	net.finishBurst(cl, tx, false)
}

// finishBurst ends a burst normally (or vacuously when the queue emptied).
func (net *Network) finishBurst(cl *cluster, tx *burst, vacuous bool) {
	if cl.activeTx != tx {
		return // already settled by a death path mid-handler
	}
	now := net.eng.Now()
	n := tx.sender
	cl.activeTx = nil
	net.releaseBurst(tx)
	if n.alive {
		n.adjust.OnServiced(n.buf.Len())
		if net.cfg.MAC.BurstSize(n.buf.Len()) > 0 {
			n.state = mac.SensorSensing
			n.sensingSince = now
		} else {
			n.state = mac.SensorSleep
		}
	}
	if cl.head.alive && !cl.collapsed {
		cl.head.accrue(net, now)
		cl.state = mac.HeadIdle
		net.scheduleTone(cl, 1*sim.Millisecond)
	}
	_ = vacuous
}

// abortBurst ends a burst after a failure; the sender returns to sensing.
func (net *Network) abortBurst(cl *cluster, tx *burst, now sim.Time) {
	if cl.activeTx != tx {
		return // already settled by a death path mid-handler
	}
	cl.activeTx = nil
	net.releaseBurst(tx)
	n := tx.sender
	if n.alive {
		n.adjust.OnServiced(n.buf.Len())
		if net.cfg.MAC.BurstSize(n.buf.Len()) > 0 {
			n.state = mac.SensorSensing
			n.sensingSince = now
		} else {
			n.state = mac.SensorSleep
		}
	}
	if cl.head.alive && !cl.collapsed {
		cl.head.accrue(net, now)
		cl.state = mac.HeadIdle
		net.scheduleTone(cl, 1*sim.Millisecond)
	}
}

func (net *Network) chargeCollisionTone(cl *cluster, now sim.Time) {
	if !cl.head.alive {
		return
	}
	pat := net.cfg.Tone.Pattern(tone.Collision)
	pulses := pat.Repeat
	if pulses <= 0 {
		pulses = 1
	}
	e := net.cfg.Device.ToneTxPower * pat.Duration.Seconds() * float64(pulses)
	if !cl.head.battery.Draw(energy.ToneTx, e) {
		net.nodeDied(cl.head, now)
	}
}

// ---------------------------------------------------------------------------
// Collisions

// joinCollision handles a contender whose backoff expired inside the
// vulnerable window of an already-started burst: its transmission overlaps
// and corrupts the burst.
func (net *Network) joinCollision(cl *cluster, n *node, now sim.Time) {
	tx := cl.activeTx
	n.accrue(net, now)
	if !n.alive {
		return
	}
	if !n.battery.Draw(energy.DataStartup, net.cfg.Device.StartupEnergy()) {
		net.nodeDied(n, now)
		return
	}
	n.state = mac.SensorTransmit
	n.counters.Attempts++
	tx.colliders = append(tx.colliders, n)
	tx.colliderJoin = append(tx.colliderJoin, now)
	if !tx.collisionSet {
		tx.collisionSet = true
		net.eng.Cancel(tx.pktEv)
		tx.collisionEv = net.eng.Schedule(net.cfg.CollisionResolveDelay, tx.resolveFn)
	}
}

func (net *Network) resolveCollision(cl *cluster, tx *burst, gen uint64) {
	if gen != net.roundGen || cl.activeTx != tx {
		return
	}
	now := net.eng.Now()
	net.collisionEvents++
	net.emit(TraceCollision, tx.sender.idx, 1+len(tx.colliders), "")

	// Collision tone from the head.
	net.chargeCollisionTone(cl, now)

	// Every participant pays for its wasted airtime, bumps its head
	// packet's retry count, and returns to sensing.
	release := func(p *node, onAirFrom sim.Time) {
		if tx.inFlight || p != tx.sender {
			net.chargeTxAirtime(p, onAirFrom, now, tx.pktMode)
		}
		if !p.alive {
			return
		}
		p.counters.Collisions++
		if pkt := p.buf.Head(); pkt != nil {
			pkt.Retries++
			if net.cfg.MAC.ShouldDrop(pkt.Retries) {
				net.catchUp(p)
				p.buf.DropHead()
				net.thr.PacketDroppedRetry()
				p.counters.RetryDrops++
				net.emit(TraceDrop, p.idx, 0, "retry")
			}
		}
		if net.cfg.MAC.BurstSize(p.buf.Len()) > 0 {
			p.state = mac.SensorSensing
			p.sensingSince = now
		} else {
			p.state = mac.SensorSleep
		}
	}
	release(tx.sender, tx.pktStart)
	tx.inFlight = false
	for i, col := range tx.colliders {
		release(col, tx.colliderJoin[i]+net.cfg.Device.DataStartupTime)
	}

	cl.activeTx = nil
	net.releaseBurst(tx)
	if cl.head.alive && !cl.collapsed {
		cl.head.accrue(net, now)
		cl.state = mac.HeadIdle
		// Resume idle tones after the collision pattern finishes.
		pat := net.cfg.Tone.Pattern(tone.Collision)
		net.scheduleTone(cl, pat.Interval*sim.Time(pat.Repeat))
	}
}

// ---------------------------------------------------------------------------
// Death, bookkeeping, sampling

// headDwell charges a cluster head's data radio per its current receive
// duty. Called from node.accrue for head nodes.
func (net *Network) headDwell(n *node, dur sim.Time, now sim.Time) bool {
	d := &net.cfg.Device
	power := d.DataIdleListenPower
	cause := energy.DataIdleListen
	if n.clusterIdx >= 0 && n.clusterIdx < len(net.clusters) {
		cl := net.clusters[n.clusterIdx]
		if cl.head == n && cl.state == mac.HeadReceive {
			power = d.DataRxPower
			cause = energy.DataRx
		}
	}
	if !n.battery.DrawPower(cause, power, dur) {
		net.nodeDied(n, now)
		return false
	}
	return true
}

// nodeDied finalizes a node's failure: metric bookkeeping, event
// cancellation, and — when the node was a cluster head — cluster collapse
// (§III.B: members lose the tone signal and sleep until re-election).
func (net *Network) nodeDied(n *node, now sim.Time) {
	if !n.alive {
		return
	}
	n.alive = false
	net.catchUp(n)
	n.lastAccrual = now
	n.diedAt = now
	net.aliveMask[n.idx] = false
	net.life.NodeDied(now)
	net.emit(TraceDeath, n.idx, 0, "")
	net.eng.Cancel(n.arrivalEv)
	net.eng.Cancel(n.backoffEv)

	if n.clusterIdx >= 0 && n.clusterIdx < len(net.clusters) {
		cl := net.clusters[n.clusterIdx]
		if cl.head == n && !cl.collapsed {
			cl.collapsed = true
			net.eng.Cancel(cl.toneEv)
			if cl.activeTx != nil {
				net.settlePartialTx(cl, now)
			}
			for _, m := range cl.members {
				if m.alive {
					m.accrue(net, now)
					if m.alive {
						m.state = mac.SensorSleep
						net.eng.Cancel(m.backoffEv)
					}
				}
			}
		} else if cl.activeTx != nil && cl.activeTx.sender == n {
			net.settlePartialTx(cl, now)
			if cl.head.alive && !cl.collapsed {
				cl.state = mac.HeadIdle
				net.scheduleTone(cl, 1*sim.Millisecond)
			}
		}
	}
}

func (net *Network) bookkeeping() {
	now := net.eng.Now()
	for _, n := range net.nodes {
		n.accrue(net, now)
	}
	if net.life.Alive() == 0 {
		net.eng.Stop()
		return
	}
	if net.cfg.StopWhenNetworkDead {
		if _, dead := net.life.NetworkDeadAt(net.cfg.DeadFraction); dead {
			net.eng.Stop()
			return
		}
	}
	net.eng.Schedule(net.cfg.BookkeepingInterval, net.bookkeepingFn)
}

func (net *Network) sampleTick() {
	net.sample()
	if net.life.Alive() > 0 {
		net.eng.Schedule(net.cfg.SampleInterval, net.sampleTickFn)
	}
}

func (net *Network) sample() {
	now := net.eng.Now()
	var sum float64
	queues := net.queueScratch[:0]
	for _, n := range net.nodes {
		sum += n.battery.Remaining()
		if n.alive && !n.isHead {
			queues = append(queues, n.buf.Len())
		}
	}
	net.queueScratch = queues
	net.energySeries.Record(now, sum/float64(len(net.nodes)))
	net.aliveSeries.Record(now, float64(net.life.Alive()))
	net.fairness.Snapshot(queues)
}

// Engine exposes the event engine for white-box tests.
func (net *Network) Engine() *sim.Engine { return net.eng }
