package mac

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default MAC config invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.SlotTime = 0 },
		func(c *Config) { c.ContentionWindow = 0 },
		func(c *Config) { c.MaxRetries = -1 },
		func(c *Config) { c.MinBurst = 0 },
		func(c *Config) { c.MaxBurst = c.MinBurst - 1 },
		func(c *Config) { c.SensingDelay = -1 },
	}
	for i, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

// The paper's burst rules: min 3 packets per transmission (startup
// amortization), max 8 (fairness).
func TestBurstSize(t *testing.T) {
	c := DefaultConfig()
	cases := []struct{ queue, want int }{
		{0, 0}, {1, 0}, {2, 0}, // below minimum: no transmission
		{3, 3}, {5, 5}, {8, 8},
		{9, 8}, {100, 8}, // capped at maximum
	}
	for _, cse := range cases {
		if got := c.BurstSize(cse.queue); got != cse.want {
			t.Errorf("BurstSize(%d) = %d, want %d", cse.queue, got, cse.want)
		}
	}
}

func TestBackoffWithinWindow(t *testing.T) {
	c := DefaultConfig()
	r := rng.NewSource(1).Stream("backoff", 0)
	for retries := 0; retries <= c.MaxRetries+2; retries++ {
		maxB := c.window(retries)
		for i := 0; i < 1000; i++ {
			d := c.Backoff(retries, r)
			if d < 1 || d > maxB {
				t.Fatalf("backoff(%d) = %v outside (0, %v]", retries, d, maxB)
			}
		}
	}
}

// Binary exponential growth: the window doubles per retry up to the cap.
func TestMaxBackoffDoubles(t *testing.T) {
	c := DefaultConfig()
	base := c.window(0)
	if base != sim.Time(c.ContentionWindow)*c.SlotTime {
		t.Fatalf("base window = %v", base)
	}
	for n := 1; n <= c.MaxRetries; n++ {
		if c.window(n) != 2*c.window(n-1) {
			t.Fatalf("window did not double at retry %d", n)
		}
	}
	// Past the cap the window stops growing.
	if c.window(c.MaxRetries+3) != c.window(c.MaxRetries) {
		t.Fatal("window grew past the retry cap")
	}
	// Negative retries clamp to 0.
	if c.window(-5) != c.window(0) {
		t.Fatal("negative retries not clamped")
	}
}

func TestBackoffMeanGrowsWithRetries(t *testing.T) {
	c := DefaultConfig()
	r := rng.NewSource(2).Stream("backoff", 0)
	mean := func(retries int) float64 {
		var sum float64
		for i := 0; i < 5000; i++ {
			sum += float64(c.Backoff(retries, r))
		}
		return sum / 5000
	}
	m0, m3 := mean(0), mean(3)
	if m3 < 6*m0 {
		t.Fatalf("mean backoff at 3 retries (%v) not ~8x the base (%v)", m3, m0)
	}
}

func TestShouldDrop(t *testing.T) {
	c := DefaultConfig()
	if c.ShouldDrop(c.MaxRetries) {
		t.Fatal("dropped at exactly MaxRetries")
	}
	if !c.ShouldDrop(c.MaxRetries + 1) {
		t.Fatal("did not drop past MaxRetries")
	}
}

func TestStateStrings(t *testing.T) {
	if SensorSleep.String() != "sleep" || SensorSensing.String() != "sensing" ||
		SensorBackoff.String() != "backoff" || SensorTransmit.String() != "transmit" {
		t.Fatal("sensor state names wrong")
	}
	if HeadIdle.String() != "idle" || HeadReceive.String() != "receive" ||
		HeadCollision.String() != "collision" || HeadTransmit.String() != "transmit" {
		t.Fatal("head state names wrong")
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{Attempts: 1, Collisions: 2, ChannelFails: 3, RetryDrops: 4, PacketsSent: 5, BurstsDone: 6, DeferralsCSI: 7, DeferralsBusy: 8}
	b := a
	a.Add(b)
	if a.Attempts != 2 || a.Collisions != 4 || a.ChannelFails != 6 || a.RetryDrops != 8 ||
		a.PacketsSent != 10 || a.BurstsDone != 12 || a.DeferralsCSI != 14 || a.DeferralsBusy != 16 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

// Property: burst size is always 0 or within [MinBurst, MaxBurst] and
// never exceeds the queue length.
func TestBurstSizeProperty(t *testing.T) {
	c := DefaultConfig()
	check := func(qRaw uint16) bool {
		q := int(qRaw % 200)
		k := c.BurstSize(q)
		if k == 0 {
			return q < c.MinBurst
		}
		return k >= c.MinBurst && k <= c.MaxBurst && k <= q
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBackoff(b *testing.B) {
	c := DefaultConfig()
	r := rng.NewSource(1).Stream("bench", 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Backoff(i%7, r)
	}
}
