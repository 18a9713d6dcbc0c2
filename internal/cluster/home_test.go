package cluster

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// TestMain checks the one-home invariant after every mutation of every
// coordinator the package's tests build: the cluster, chaos and
// failover suites alike. A violation panics inside the mutation, so the
// stack names the path that broke it.
func TestMain(m *testing.M) {
	testHookMutated = func(c *Coordinator) {
		if err := oneHomeViolation(c); err != nil {
			panic(err)
		}
	}
	os.Exit(m.Run())
}

// oneHomeViolation reports a cell found in more than one of the
// coordinator's homes: the ready queue, delayed, a lease, settling and
// settled. Claim, settlement and expiry rely on it: none of them checks
// whether a cell it moves is also somewhere else. Caller holds c.mu.
func oneHomeViolation(c *Coordinator) error {
	homes := make(map[cellID]string)
	var err error
	place := func(id cellID, home string) {
		if prev, ok := homes[id]; ok && err == nil {
			err = fmt.Errorf("cluster: cell %s/%d is both in %s and in %s", id.campaign, id.index, prev, home)
		}
		homes[id] = home
	}
	for _, cell := range c.queue {
		place(cell.id(), "the queue")
	}
	for _, d := range c.delayed {
		place(d.cell.id(), "delayed")
	}
	for id, l := range c.leases {
		for _, cell := range l.cells {
			place(cell.id(), "lease "+id)
		}
	}
	for id := range c.settling {
		place(id, "settling")
	}
	for campaign, set := range c.settled {
		for w, word := range set {
			for b := 0; b < 64; b++ {
				if word&(1<<b) != 0 {
					place(cellID{campaign, w*64 + b}, "settled")
				}
			}
		}
	}
	return err
}

// TestOneHomeViolationDetected: the checker finds a cell with two homes.
func TestOneHomeViolationDetected(t *testing.T) {
	c := NewCoordinator(newTestSink(), Options{LeaseTTL: time.Hour})
	defer c.Stop()
	cells := testCells(t, 2)
	c.Submit(cells)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := oneHomeViolation(c); err != nil {
		t.Fatalf("fresh submit: %v", err)
	}
	c.markSettledLocked(cells[1].id())
	err := oneHomeViolation(c)
	delete(c.settled, cells[1].Campaign)
	if err == nil {
		t.Fatal("a queued cell also marked settled went unnoticed")
	}
}

// TestClaimReleasesDrainedQueue: granting the last queued cells drops
// the queue's backing array, so a drained campaign's cells stay
// reachable only through their leases.
func TestClaimReleasesDrainedQueue(t *testing.T) {
	c := NewCoordinator(newTestSink(), Options{LeaseTTL: time.Hour, MaxBatch: 2})
	defer c.Stop()
	c.Submit(testCells(t, 3))
	for granted := 0; granted < 3; {
		l, err := c.Claim("w", 0)
		if err != nil || l == nil {
			t.Fatalf("claim after %d granted: %v, %v", granted, l, err)
		}
		granted += len(l.Cells)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.queue != nil {
		t.Fatalf("drained queue still holds an array of %d cells", cap(c.queue))
	}
}
