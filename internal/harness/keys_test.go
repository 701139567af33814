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
		"grid-cell bitcnt/Big 5ec57acd8fc28f3027a73d92234bc7cc04a8c140b8923048695be7836f00ee32",
		"sweep-total sweep MiBench/Big th=4 be8df4c92448da14512c917c55751c208c88cc7d88e39c5895a54de3bbbf3cb3",
		"sweep-total sweep MiBench/Big th=5 db2dbfc949258d76d16d84ab9e1470894c181e64df6242e349b7e9e987111585",
		"sweep-total sweep MiBench/Big th=6 e87ca69d14b1899bcf5064aefa87c054fa9a9d24a9107dcb4612e422976e3526",
		"sweep-total sweep MiBench/Big th=7 df39bd4361e6feeddc11a09dc9a1345699db2ec1a0818d4104de306c8dce9c6b",
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
		"bitcnt/Big":             "b0b31a6716e4647c4f04e495d518329d1da6b65478e5acac69d742fe8746869a",
		"sweep MiBench/Big th=4": "4d2f9393a7ffbf0bbae5ecd460d436e0d59cee3fdb09c94432515fe77628ab83",
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
