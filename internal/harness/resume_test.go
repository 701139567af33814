package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"redsoc/internal/baseline"
	"redsoc/internal/cellstore"
	"redsoc/internal/ooo"
)

// reportJSON canonicalizes a grid into comparable bytes: fixed scale and
// worker stamp, zero wall time (the one nondeterministic field).
func reportJSON(t *testing.T, g *Grid) []byte {
	t.Helper()
	r := g.Report()
	r.Scale = "resume-e2e"
	r.Workers = 2
	r.WallSeconds = 0
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestJournalResumeEquivalence runs a sweep-enabled grid fresh into a
// journal, then resumes it from that journal: the resumed grid must be
// bit-identical and must touch zero simulations — every sweep total and
// every cell is a journal hit.
func TestJournalResumeEquivalence(t *testing.T) {
	dir := t.TempDir()
	bs := Benchmarks(Quick)
	cores := []ooo.Config{ooo.MediumConfig()}

	fresh, err := cellstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := Run(context.Background(), bs, cores,
		Options{SweepThreshold: true, Workers: 2, Journal: fresh})
	if err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.Hits != 0 || st.Writes == 0 {
		t.Fatalf("fresh run stats = %+v, want write-only journaling", st)
	}
	fresh.Close()

	resumed, err := cellstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	g2, err := Run(context.Background(), bs, cores,
		Options{SweepThreshold: true, Workers: 2, Journal: resumed, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	want, got := reportJSON(t, g1), reportJSON(t, g2)
	if string(want) != string(got) {
		t.Fatalf("resumed grid diverges from the fresh run:\n--- fresh ---\n%s--- resumed ---\n%s", want, got)
	}
	st := resumed.Stats()
	nSweep := len(Classes()) * len(cores) * len(ThresholdCandidates)
	nCells := len(bs) * len(cores)
	if int(st.Hits) != nSweep+nCells || st.Misses != 0 {
		t.Fatalf("resume stats = %+v, want %d hits (%d sweep + %d cells) and no misses",
			st, nSweep+nCells, nSweep, nCells)
	}
}

// TestJournalCorruptionFallsBackToSimulation corrupts one journaled value
// between the fresh run and the resume: the resume must re-simulate that
// cell (a miss, never wrong data) and still produce the identical grid.
func TestJournalCorruptionFallsBackToSimulation(t *testing.T) {
	dir := t.TempDir()
	bs := Benchmarks(Quick)[:3]
	cores := []ooo.Config{ooo.SmallConfig()}

	fresh, err := cellstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := Run(context.Background(), bs, cores, Options{Workers: 2, Journal: fresh})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Close()

	// Truncate one value file (any one — recs carry the keys).
	recs, err := cellstore.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	truncated := false
	for _, r := range recs {
		if r.Op == "done" {
			path := filepath.Join(dir, string(r.Key)+".cell")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			truncated = true
			break
		}
	}
	if !truncated {
		t.Fatal("no done record found to corrupt")
	}

	resumed, err := cellstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	g2, err := Run(context.Background(), bs, cores,
		Options{Workers: 2, Journal: resumed, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if want, got := reportJSON(t, g1), reportJSON(t, g2); string(want) != string(got) {
		t.Fatalf("grid diverged after corrupted-cell fallback:\n--- fresh ---\n%s--- resumed ---\n%s", want, got)
	}
	st := resumed.Stats()
	if st.Corrupt != 1 || st.Misses != 1 || int(st.Hits) != len(bs)-1 {
		t.Fatalf("resume stats = %+v, want exactly the corrupted cell re-simulated", st)
	}
}

// TestJournalRefusedPayloadIsCorruptMiss plants a well-framed payload that
// is not a cell (a sweep total) under a real cell's key: the store verifies
// its framing and checksum, but decodeCell refuses it, so the resume
// simulates the cell again and the store counts a corrupt miss, not a hit.
func TestJournalRefusedPayloadIsCorruptMiss(t *testing.T) {
	b, err := FindBenchmark(Benchmarks(Quick), "bitcnt")
	if err != nil {
		t.Fatal(err)
	}
	bs, cores := []Benchmark{b}, []ooo.Config{ooo.BigConfig()}
	store, err := cellstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := Run(context.Background(), bs, cores, Options{Workers: 2, Journal: store}); err != nil {
		t.Fatal(err)
	}
	total, err := encodeTotal(1)
	if err != nil {
		t.Fatal(err)
	}
	key := cellKey(coreID(t, cores[0]), benchmarkDigest(b), baseline.DefaultThreshold(cores[0]))
	if err := store.Put(key, total); err != nil {
		t.Fatal(err)
	}

	before := store.Stats()
	var simulated atomic.Int64
	_, err = Run(context.Background(), bs, cores, Options{Workers: 2, Journal: store, Resume: true,
		OnCell: func(ev CellEvent) {
			if !ev.Hit {
				simulated.Add(1)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	after := store.Stats()
	if d := [3]int64{after.Hits - before.Hits, after.Misses - before.Misses, after.Corrupt - before.Corrupt}; d != [3]int64{0, 1, 1} {
		t.Errorf("resume moved hits, misses, corrupt by %v, want [0 1 1]", d)
	}
	if n := simulated.Load(); n != 1 {
		t.Errorf("%d units simulated, want the refused cell alone", n)
	}
}

// TestCrashResumeEndToEnd is the tentpole's crash test: a subprocess runs
// the journaled grid and is SIGKILLed mid-campaign (no deferred cleanup, no
// manifest flush courtesy — the hard way), then a second subprocess resumes
// from the same journal. The resumed report must be byte-identical to an
// uninterrupted in-process run, and must have served at least one journal
// hit.
func TestCrashResumeEndToEnd(t *testing.T) {
	if os.Getenv("REDSOC_CRASH_DIR") != "" {
		t.Skip("helper invocation")
	}
	dir := t.TempDir()
	journalDir := filepath.Join(dir, "journal")

	// The uninterrupted reference, in-process.
	ref, err := Run(context.Background(), Benchmarks(Quick), []ooo.Config{ooo.MediumConfig()},
		Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, ref)

	child := func() *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCrashResumeChild$", "-test.count=1")
		cmd.Env = append(os.Environ(), "REDSOC_CRASH_DIR="+dir)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		return cmd
	}

	// Run 1: kill at roughly half the campaign, mid-write pressure and all.
	c1 := child()
	if err := c1.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if n, err := cellstore.DoneCount(journalDir); err == nil && n >= 7 {
			break
		}
		if time.Now().After(deadline) {
			c1.Process.Kill()
			c1.Wait()
			t.Fatal("child never reached the kill point")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	c1.Wait() // exit error expected: it was SIGKILLed

	killedAt, err := cellstore.DoneCount(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("killed child after %d journaled cells", killedAt)

	// Run 2: resume to completion.
	c2 := child()
	if err := c2.Run(); err != nil {
		t.Fatalf("resume child failed: %v", err)
	}

	got, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed report diverges from the uninterrupted run:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	statsData, err := os.ReadFile(filepath.Join(dir, "stats.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var hits, misses int64
	if _, err := fmt.Sscanf(string(statsData), "hits=%d misses=%d", &hits, &misses); err != nil {
		t.Fatalf("bad stats file %q: %v", statsData, err)
	}
	if hits < 1 {
		t.Fatalf("resume served %d journal hits, want at least 1 (killed at %d cells)", hits, killedAt)
	}
}

// TestCrashResumeChild is TestCrashResumeEndToEnd's subprocess body: run the
// journaled quick grid on the medium core and write the canonical report.
// Skipped unless re-exec'd with REDSOC_CRASH_DIR set.
func TestCrashResumeChild(t *testing.T) {
	dir := os.Getenv("REDSOC_CRASH_DIR")
	if dir == "" {
		t.Skip("helper process for TestCrashResumeEndToEnd")
	}
	journal, err := cellstore.Open(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	g, err := Run(context.Background(), Benchmarks(Quick), []ooo.Config{ooo.MediumConfig()},
		Options{Workers: 2, Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	st := journal.Stats()
	stats := fmt.Sprintf("hits=%d misses=%d\n", st.Hits, st.Misses)
	if err := os.WriteFile(filepath.Join(dir, "stats.txt"), []byte(stats), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "report.json"), reportJSON(t, g), 0o644); err != nil {
		t.Fatal(err)
	}
}
