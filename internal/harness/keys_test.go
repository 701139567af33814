package harness

import (
	"context"
	"sort"
	"sync"
	"testing"

	"redsoc/internal/cellstore"
	"redsoc/internal/ooo"
)

// TestJournalKeysPinned pins the content-addressed keys of one sweep total
// per threshold candidate and one grid cell (quick bitcnt on Big) to
// literal values. Every journal and serve cache on disk is indexed by these
// keys, so a refactor that silently changes one — a reordered fingerprint
// field, a renamed policy, a new digest input — would orphan all of them.
// If a key change is deliberate, bump cellPayloadVersion and update the
// literals here in the same change.
func TestJournalKeysPinned(t *testing.T) {
	b, err := FindBenchmark(Benchmarks(Quick), "bitcnt")
	if err != nil {
		t.Fatal(err)
	}
	store, err := cellstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var mu sync.Mutex
	var got []string
	_, err = Run(context.Background(), []Benchmark{b}, []ooo.Config{ooo.BigConfig()}, Options{
		SweepThreshold: true,
		Workers:        1,
		Journal:        store,
		OnCell: func(ev CellEvent) {
			mu.Lock()
			got = append(got, ev.Kind+" "+ev.Label+" "+string(ev.Key))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	want := []string{
		"grid-cell bitcnt/Big df1df4538cca0f077b7fd325063514ff3fde1be70d55820d803ff4f9b7fe315c",
		"sweep-total sweep MiBench/Big th=4 178082ff1d9da187cab048546edc34e26049d3260a974e29bc39fe15fbfa2571",
		"sweep-total sweep MiBench/Big th=5 9c6c8b50f4f342b8d0b72c46d686391d3f47b457e158655e6bd412b311bb9a0b",
		"sweep-total sweep MiBench/Big th=6 906889b017c2713663eb6cc703945a45fab2ec8b1fcb338cce540460096ddb1e",
		"sweep-total sweep MiBench/Big th=7 5fedf628449f6da89012e1233ee9c218cafa59c9036005ca5396757b2ccce7e3",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d keyed units, want %d:\n%q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("unit %d key drifted:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
