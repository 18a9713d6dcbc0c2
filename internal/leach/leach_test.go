package leach

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
)

func allAlive(n int) []bool {
	a := make([]bool, n)
	for i := range a {
		a[i] = true
	}
	return a
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{HeadFraction: 0.05, Nodes: 100}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{HeadFraction: 0, Nodes: 100},
		{HeadFraction: 1.5, Nodes: 100},
		{HeadFraction: 0.05, Nodes: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestEpochRounds(t *testing.T) {
	if got := (Config{HeadFraction: 0.05, Nodes: 100}).EpochRounds(); got != 20 {
		t.Fatalf("EpochRounds = %d, want 20", got)
	}
	if got := (Config{HeadFraction: 0.34, Nodes: 10}).EpochRounds(); got != 3 {
		t.Fatalf("EpochRounds = %d, want 3", got)
	}
}

// The paper's T(n): P/(1 - P*(r mod 1/P)). At the epoch's last round the
// threshold reaches 1, forcing every remaining eligible node to elect.
func TestThresholdFormula(t *testing.T) {
	e := NewElection(Config{HeadFraction: 0.05, Nodes: 100}, rng.NewSource(1).Stream("el", 0))
	if got := e.Threshold(0); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("T at round 0 = %v, want 0.05", got)
	}
	if got := e.Threshold(10); math.Abs(got-0.05/(1-0.05*10)) > 1e-12 {
		t.Fatalf("T at round 10 = %v", got)
	}
	if got := e.Threshold(19); math.Abs(got-1) > 1e-9 {
		t.Fatalf("T at round 19 = %v, want 1", got)
	}
	// Threshold grows monotonically within an epoch.
	prev := 0.0
	for r := 0; r < 20; r++ {
		th := e.Threshold(r)
		if th <= prev {
			t.Fatalf("threshold not increasing at round %d", r)
		}
		prev = th
	}
}

// Long-run CH fraction must be ~P.
func TestElectionFraction(t *testing.T) {
	cfg := Config{HeadFraction: 0.05, Nodes: 100}
	e := NewElection(cfg, rng.NewSource(2).Stream("el", 0))
	alive := allAlive(100)
	total := 0
	const rounds = 2000
	for r := 0; r < rounds; r++ {
		total += len(e.ElectInto(nil, alive))
	}
	frac := float64(total) / float64(rounds*100)
	if math.Abs(frac-0.05) > 0.01 {
		t.Fatalf("long-run CH fraction = %v, want ~0.05", frac)
	}
}

// Every node serves exactly once per rotation epoch — LEACH's fairness
// guarantee, which the paper leans on for the "abrupt drop" in Fig. 9.
func TestEveryNodeServesOncePerEpoch(t *testing.T) {
	cfg := Config{HeadFraction: 0.05, Nodes: 100}
	e := NewElection(cfg, rng.NewSource(3).Stream("el", 0))
	alive := allAlive(100)
	served := make([]int, 100)
	for r := 0; r < cfg.EpochRounds(); r++ {
		for _, h := range e.ElectInto(nil, alive) {
			served[h]++
		}
	}
	for i, s := range served {
		if s != 1 {
			t.Fatalf("node %d served %d times in one epoch, want exactly 1", i, s)
		}
	}
}

func TestAtLeastOneHeadWhileAlive(t *testing.T) {
	cfg := Config{HeadFraction: 0.05, Nodes: 10}
	e := NewElection(cfg, rng.NewSource(4).Stream("el", 0))
	alive := allAlive(10)
	for r := 0; r < 500; r++ {
		heads := e.ElectInto(nil, alive)
		if len(heads) == 0 {
			t.Fatalf("round %d elected no cluster head", r)
		}
		for _, h := range heads {
			if !alive[h] {
				t.Fatalf("round %d elected dead node %d", r, h)
			}
		}
	}
}

func TestDeadNodesNeverElected(t *testing.T) {
	cfg := Config{HeadFraction: 0.2, Nodes: 20}
	e := NewElection(cfg, rng.NewSource(5).Stream("el", 0))
	alive := allAlive(20)
	for i := 0; i < 10; i++ {
		alive[i] = false
	}
	for r := 0; r < 200; r++ {
		for _, h := range e.ElectInto(nil, alive) {
			if h < 10 {
				t.Fatalf("dead node %d elected in round %d", h, r)
			}
		}
	}
}

func TestElectionAllDead(t *testing.T) {
	cfg := Config{HeadFraction: 0.1, Nodes: 5}
	e := NewElection(cfg, rng.NewSource(6).Stream("el", 0))
	heads := e.ElectInto(nil, make([]bool, 5))
	if len(heads) != 0 {
		t.Fatalf("elected %d heads from a dead network", len(heads))
	}
}

func TestElectionWrongMaskPanics(t *testing.T) {
	e := NewElection(Config{HeadFraction: 0.1, Nodes: 5}, rng.NewSource(7).Stream("el", 0))
	defer func() {
		if recover() == nil {
			t.Error("wrong-size alive mask did not panic")
		}
	}()
	e.ElectInto(nil, make([]bool, 4))
}

func TestElectionDeterminism(t *testing.T) {
	run := func() [][]int {
		e := NewElection(Config{HeadFraction: 0.05, Nodes: 50}, rng.NewSource(8).Stream("el", 0))
		alive := allAlive(50)
		var out [][]int
		for r := 0; r < 40; r++ {
			out = append(out, e.ElectInto(nil, alive))
		}
		return out
	}
	a, b := run(), run()
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatalf("round %d head count differs", r)
		}
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("round %d head %d differs", r, i)
			}
		}
	}
}

func TestAssignNearest(t *testing.T) {
	positions := []geom.Point{
		{X: 0, Y: 0},   // head 0
		{X: 100, Y: 0}, // head 1
		{X: 10, Y: 0},  // member, nearer head 0
		{X: 90, Y: 0},  // member, nearer head 1
		{X: 49, Y: 0},  // member, nearer head 0
	}
	var a Assignment
	AssignInto(&a, []int{0, 1}, positions, allAlive(5))
	if a.HeadOf(2) != 0 || a.HeadOf(3) != 1 || a.HeadOf(4) != 0 {
		t.Fatalf("assignment wrong: %v", a.ClusterOf)
	}
	if a.HeadOf(0) != 0 || a.HeadOf(1) != 1 {
		t.Fatal("heads not in their own clusters")
	}
	if len(a.Members[0])+1 != 3 || len(a.Members[1])+1 != 2 {
		t.Fatalf("cluster sizes %d, %d", len(a.Members[0])+1, len(a.Members[1])+1)
	}
}

func TestAssignSkipsDead(t *testing.T) {
	positions := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}}
	alive := []bool{true, false, true}
	var a Assignment
	AssignInto(&a, []int{0}, positions, alive)
	if a.ClusterOf[1] != -1 || a.HeadOf(1) != -1 {
		t.Fatal("dead node assigned to a cluster")
	}
	if len(a.Members[0]) != 1 || a.Members[0][0] != 2 {
		t.Fatalf("members = %v", a.Members[0])
	}
}

// Property: every alive node is assigned to its geometrically nearest
// head; dead nodes are unassigned.
func TestAssignProperty(t *testing.T) {
	r := rng.NewSource(9).Stream("assign", 0)
	check := func(nRaw, hRaw uint8) bool {
		n := int(nRaw%30) + 2
		h := int(hRaw%uint8(n-1)) + 1
		positions := make([]geom.Point, n)
		for i := range positions {
			positions[i] = geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
		}
		alive := make([]bool, n)
		for i := range alive {
			alive[i] = r.Float64() > 0.2
		}
		heads := perm(r, n)[:h]
		for _, hd := range heads {
			alive[hd] = true
		}
		var a Assignment
		AssignInto(&a, heads, positions, alive)
		headPts := make([]geom.Point, len(heads))
		for c, hd := range heads {
			headPts[c] = positions[hd]
		}
		for i := 0; i < n; i++ {
			if !alive[i] {
				if a.ClusterOf[i] != -1 {
					return false
				}
				continue
			}
			isHead := false
			for _, hd := range heads {
				if hd == i {
					isHead = true
				}
			}
			if isHead {
				if a.HeadOf(i) != i {
					return false
				}
				continue
			}
			nearest, _ := geom.Nearest(positions[i], headPts)
			if a.ClusterOf[i] != nearest {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// perm returns a Fisher-Yates permutation of [0, n) drawn from r.
func perm(r *rng.Stream, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
