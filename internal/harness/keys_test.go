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
		"grid-cell bitcnt/Big dc481693cb4a3986b4992d5d9eb7ffcb465451311a38620b37073fff56ac657c",
		"sweep-total sweep MiBench/Big th=4 ab52df2f9d27da442cdfe8b5b5f0a7f277844b32c3f3e7a1075922568577165f",
		"sweep-total sweep MiBench/Big th=5 8d499cfec6467c48587a737a356ffa14c901569395631367fb2da12b88163606",
		"sweep-total sweep MiBench/Big th=6 95f7a2c7159128191c60b5464bac96b13439403f0fa022144eadc46bbc89c0f0",
		"sweep-total sweep MiBench/Big th=7 0b12cd7d3c79300b5ea31b58aa4136268baebae541601a5cc45a1903a004b8a5",
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
		"bitcnt/Big":             "45302791c88e5e9a7d808b73f94022b206fccb53732dde8ce418742979715de2",
		"sweep MiBench/Big th=4": "9f14378417eba1138b3d1ca6855f82f1870f01cb75b1e27e34dd298ca780cd4a",
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
