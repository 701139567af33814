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
		"grid-cell bitcnt/Big 040330f3ab58a58bc58a171bb1d1deb6509359f31acd0cac784ee9221a0602ee",
		"sweep-total sweep MiBench/Big th=4 e119c7ad8c26ce59740abd07802048abbae745446d8c4e399c1285c18fc947dd",
		"sweep-total sweep MiBench/Big th=5 a619b47160b745c12818fe1ddecb4b560a0fb264b5cd271345ca05838c2ab0f3",
		"sweep-total sweep MiBench/Big th=6 0321c447bfa684954021832da45347cdfb250a6ec032dde9064bd6fb98fc7f0d",
		"sweep-total sweep MiBench/Big th=7 1fc8e7bf68fe1e478742912578cbbd95695cbd0bcbfc12338eba44637f5afa1b",
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
		"bitcnt/Big":             "e75a77857d9bbd7c40087623e64641da9bf20e626523a7165e95fc96bb41df9a",
		"sweep MiBench/Big th=4": "79dc0d97a453cdc2afb0965e4c22a7322d57305812a8acf6e95822ad06f27c33",
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
