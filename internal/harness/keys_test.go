package harness

import (
	"context"
	"crypto/sha256"
	"fmt"
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
		"grid-cell bitcnt/Big 9cbcdcace11fece80293cdfb058df782ca9c1f38b3b2b6eee3423dec8de4a119",
		"sweep-total sweep MiBench/Big th=4 f5ecda6329f414ebb10a9bb89846951901d0e90fd44b37cd71c5768cd15ec6ce",
		"sweep-total sweep MiBench/Big th=5 bfb2420b61f8d0c785dbd15639fedf0dcc7fd44bd3ea8720f1e64f63aa95f151",
		"sweep-total sweep MiBench/Big th=6 005d16ce95582af6f6d9e25e06868cf4ab81d2c5314bf45cd6d90f710343e65e",
		"sweep-total sweep MiBench/Big th=7 abedc640bff106bb37fd28d060e014d965d95c736b007296928fc96aac6ea002",
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

// TestJournalPayloadsPinned pins the SHA-256 of two journaled payloads —
// the quick bitcnt/Big grid cell and its sweep total at th=4 — to literal
// values. The keys above only prove a journal is found; this proves what it
// holds is unchanged, so an engine-side refactor (result sharing, arch-state
// canonicalisation, encoding) that perturbs a single byte of a cell fails
// here rather than silently forking every journal on disk.
func TestJournalPayloadsPinned(t *testing.T) {
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
	keys := map[string]cellstore.Key{}
	_, err = Run(context.Background(), []Benchmark{b}, []ooo.Config{ooo.BigConfig()}, Options{
		SweepThreshold: true,
		Workers:        1,
		Journal:        store,
		OnCell: func(ev CellEvent) {
			mu.Lock()
			keys[ev.Label] = ev.Key
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for label, want := range map[string]string{
		"bitcnt/Big":             "63ec87c14337870b2555e0426062e6b28a6d1af74a0feb383e071f107fd65727",
		"sweep MiBench/Big th=4": "91fa0bbdeb03ee080899a48a9964195608eb2fcea066688b1ef466e696f4c34f",
	} {
		data, ok := store.Get(keys[label])
		if !ok {
			t.Fatalf("%s: no journaled payload", label)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("%s payload drifted:\n got sha256 %s\nwant sha256 %s", label, got, want)
		}
	}
}
