package store_test

import (
	"fmt"
	"os"

	"repro/internal/store"
)

// A store round-trips self-describing cell records through an
// append-only JSONL log with O(1) keyed lookups.
func Example() {
	dir, err := os.MkdirTemp("", "store-example")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)

	s, err := store.Open(dir)
	if err != nil {
		fmt.Println(err)
		return
	}
	rec := store.Record{
		Campaign: "docs",
		Hash:     "0011223344556677",
		Scenario: "node-churn",
		Protocol: "CAEM-scheme1",
		Seed:     3,
		Summary:  store.Summary{TotalConsumedJ: 41.5, Delivered: 1200, DeliveryRate: 0.96},
	}
	if err := s.PutBatch([]store.Record{rec}); err != nil {
		fmt.Println(err)
		return
	}
	if err := s.Close(); err != nil {
		fmt.Println(err)
		return
	}

	// Reopen — a fresh process recovering the same directory.
	s2, err := store.Open(dir)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer s2.Close()
	got, ok, err := s2.Get(rec.Key())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("cells=%d found=%v consumed=%.1fJ delivered=%d\n",
		s2.Len(), ok, got.Summary.TotalConsumedJ, got.Summary.Delivered)
	// Output:
	// cells=1 found=true consumed=41.5J delivered=1200
}
