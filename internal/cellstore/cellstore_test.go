package cellstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testKey(t *testing.T, parts ...any) Key {
	t.Helper()
	f := NewFingerprint("test-cell")
	for i, p := range parts {
		f.Field(fmt.Sprintf("p%d", i), p)
	}
	return f.Key()
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := testKey(t, "roundtrip", 42)
	payload := []byte(`{"cycles": 12345, "speedup": 1.0625}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("Get before Put must miss")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want the stored payload", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 write", st)
	}
}

// TestLoadCountsRefusedPayloadAsCorrupt: a verified payload the caller's
// decoder refuses is a corrupt miss, and one it accepts is a hit.
func TestLoadCountsRefusedPayloadAsCorrupt(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := testKey(t, "refused")
	if err := s.Put(key, []byte("not a number")); err != nil {
		t.Fatal(err)
	}
	if _, ok := Load(s, key, func(p []byte) (int, error) { return 0, fmt.Errorf("refused %q", p) }); ok {
		t.Fatal("Load served a payload its decoder refused")
	}
	if n, ok := Load(s, key, func(p []byte) (int, error) { return len(p), nil }); !ok || n != 12 {
		t.Fatalf("Load = %d, %v; want the decoded payload", n, ok)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want 1 hit and 1 corrupt miss", st)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := testKey(t, map[string]int{"a": 1, "b": 2}, "medium", 0.01)
	if got := testKey(t, map[string]int{"b": 2, "a": 1}, "medium", 0.01); got != base {
		t.Fatal("map key order changed the fingerprint: canonical JSON must sort keys")
	}
	for name, other := range map[string]Key{
		"value":     testKey(t, map[string]int{"a": 1, "b": 3}, "medium", 0.01),
		"string":    testKey(t, map[string]int{"a": 1, "b": 2}, "small", 0.01),
		"float":     testKey(t, map[string]int{"a": 1, "b": 2}, "medium", 0.1),
		"arity":     testKey(t, map[string]int{"a": 1, "b": 2}, "medium"),
		"framing":   testKey(t, map[string]int{"a": 1, "b": 2}, "medium0.01"),
		"kind-only": NewFingerprint("other-cell").Field("p0", map[string]int{"a": 1, "b": 2}).Field("p1", "medium").Field("p2", 0.01).Key(),
	} {
		if other == base {
			t.Errorf("%s variation did not change the fingerprint", name)
		}
	}
}

// corrupt writes a mutated copy of key's value file using fn.
func corrupt(t *testing.T, s *Store, key Key, fn func([]byte) []byte) {
	t.Helper()
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionIsAMiss covers the tentpole's corruption matrix: a
// truncated value, a flipped payload byte, a stale schema version and a
// value filed under a foreign key must each be detected and served as a
// miss — never as data.
func TestCorruptionIsAMiss(t *testing.T) {
	payload := []byte(`{"cells": [1, 2, 3], "total": 6.5}`)
	cases := map[string]func([]byte) []byte{
		"truncated": func(d []byte) []byte { return d[:len(d)-7] },
		"payload bit flip": func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[len(out)-2] ^= 0x40
			return out
		},
		"stale schema version": func(d []byte) []byte {
			return bytes.Replace(d, []byte(magic+" 1 "), []byte(magic+" 999 "), 1)
		},
		"bad magic": func(d []byte) []byte {
			return append([]byte("someone-elses-file "), d...)
		},
		"empty file": func([]byte) []byte { return nil },
		"header only": func(d []byte) []byte {
			nl := bytes.IndexByte(d, '\n')
			return d[:nl+1]
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			key := testKey(t, name)
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			corrupt(t, s, key, fn)
			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupted value served as a hit: %q", got)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("stats = %+v, want the miss counted as corrupt", st)
			}
			// The journal self-heals: re-Put and the hit is back.
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("re-Put after corruption: Get = %q, %v", got, ok)
			}
		})
	}
}

// TestForeignKeyFile plants a valid value under the wrong file name (what a
// buggy copy or an adversarial rename would do): the key-echo check must
// reject it.
func TestForeignKeyFile(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, b := testKey(t, "a"), testKey(t, "b")
	if err := s.Put(a, []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.path(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(b), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(b); ok {
		t.Fatalf("value owned by key %s served for key %s: %q", a, b, got)
	}
}

// TestConcurrentWritersOneJournal hammers one journal directory from many
// goroutines through two independent Store handles (two "processes"):
// every concurrent Get must observe either a miss or the complete, correct
// payload for its key — never a torn or foreign value.
func TestConcurrentWritersOneJournal(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	const keys = 8
	const rounds = 50
	payload := func(k int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("cell-%d-", k)), 512)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 4*keys)
	for k := 0; k < keys; k++ {
		key := testKey(t, "concurrent", k)
		for _, s := range []*Store{s1, s2} {
			wg.Add(2)
			go func() { // writer
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if err := s.Put(key, payload(k)); err != nil {
						errc <- err
						return
					}
					if err := s.LogDone(key, fmt.Sprintf("cell-%d round %d", k, r)); err != nil {
						errc <- err
						return
					}
				}
			}()
			go func() { // reader
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if got, ok := s.Get(key); ok && !bytes.Equal(got, payload(k)) {
						errc <- fmt.Errorf("key %d: torn or foreign payload (%d bytes)", k, len(got))
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// After the dust settles every key must be a clean hit.
	for k := 0; k < keys; k++ {
		key := testKey(t, "concurrent", k)
		if got, ok := s1.Get(key); !ok || !bytes.Equal(got, payload(k)) {
			t.Fatalf("key %d: final Get = %v (%d bytes)", k, ok, len(got))
		}
	}
	// The manifest interleaved whole lines: every record parses.
	recs, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * keys * rounds; len(recs) != want {
		t.Fatalf("manifest has %d parsed records, want %d (torn interleaving?)", len(recs), want)
	}
	n, err := DoneCount(dir)
	if err != nil || n != 2*keys*rounds {
		t.Fatalf("DoneCount = %d, %v", n, err)
	}
}

func TestManifestLifecycle(t *testing.T) {
	dir := t.TempDir()
	if recs, err := ReadManifest(dir); err != nil || recs != nil {
		t.Fatalf("missing manifest: recs=%v err=%v, want empty", recs, err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LogCampaign(45, "quick grid on 4 workers"); err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "manifest")
	if err := s.LogDone(key, "bitcnt/Small th=6\nwith a sneaky newline"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.LogDone(key, "after close"); err == nil {
		t.Fatal("LogDone after Close must fail")
	}
	// A torn trailing line (crash mid-append at worst) is skipped, not fatal.
	f, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("done deadbeef"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("parsed %d records, want 2 (campaign + done; torn line skipped): %+v", len(recs), recs)
	}
	if recs[0].Op != "campaign" || recs[0].N != 45 || recs[0].Label != "quick grid on 4 workers" {
		t.Fatalf("campaign record = %+v", recs[0])
	}
	if recs[1].Op != "done" || recs[1].Key != key || recs[1].Label != "bitcnt/Small th=6 with a sneaky newline" {
		t.Fatalf("done record = %+v", recs[1])
	}
	if n, err := DoneCount(dir); err != nil || n != 1 {
		t.Fatalf("DoneCount = %d, %v, want 1", n, err)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") must fail")
	}
}
