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
		"grid-cell bitcnt/Big c10ebdc10a610bcb1fcbc50c138048ba5ad0e29cb2c7322ba3c7ca0ef00b8e5c",
		"sweep-total sweep MiBench/Big th=4 8e423c06451cc2c6e09d9ff883acfb2e2e24356ff5b3fe59770a01c1a846bf91",
		"sweep-total sweep MiBench/Big th=5 e73041b9d5622dfd8a4a0a346c3dd35bdb48cf5b0ca1c66b484d389db334602a",
		"sweep-total sweep MiBench/Big th=6 f8ee2094273f4b462b03fcb1292a085523c0d0a7a95bb0f6acd90ad4a755405b",
		"sweep-total sweep MiBench/Big th=7 cb232242526b326ff87a80bad63354037bff1dbd9be435fca290d39e9377912b",
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
		"bitcnt/Big":             "fa33de2ed03c3612b5df12cb6364fc227e2bb184e650ea27f43168102c04bc21",
		"sweep MiBench/Big th=4": "6a7cbdff7cc36f6a5383bd5192de9d7c8c4cc6c9023ccc3a49738f64692d146d",
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
