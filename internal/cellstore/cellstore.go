// Package cellstore is the crash-safe, content-addressed result journal
// behind resumable campaigns. A cell — one unit of deterministic simulation
// work — is keyed by a canonical fingerprint of everything that determines
// its result (core configuration, workload fingerprint, policy, threshold,
// fault seed and rate, and a schema version), and its value is written with
// a temp-file + atomic-rename protocol under a checksum, so a reader either
// sees a complete, verified value or a miss — never a torn one. An
// append-only manifest records campaign progress so an interrupted run (and
// anything watching it, like the crash tests) knows exactly which cells are
// done.
//
// The store's one correctness rule: any anomaly — a truncated file, a
// checksum mismatch, a stale schema version, a half-renamed temp file — is
// a cache miss, never a wrong result. The simulator's strict determinism
// (the -j 1 ≡ -j N and exact-cycle-baseline gates) is what makes serving a
// journaled value provably exact: re-running the cell would produce the
// same bytes.
package cellstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
)

// SchemaVersion is the on-disk format version. Values written under any
// other version are treated as misses, and it participates in every
// fingerprint, so a format or simulator-behavior bump cleanly invalidates
// old journals instead of replaying them.
const SchemaVersion = 1

// magic heads every value file.
const magic = "redsoc-cellstore"

// manifestName is the append-only campaign manifest inside a journal dir.
const manifestName = "MANIFEST.log"

// Stats is a point-in-time snapshot of a store's counters.
type Stats struct {
	// Hits and Misses count Get and Load outcomes; Corrupt is the subset of
	// misses caused by a present-but-invalid value file or a payload Load's
	// decoder refused.
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Corrupt int64 `json:"corrupt"`
	// Writes counts successful Puts; WriteErrors counts Puts that failed
	// (full disk, permissions) — the campaign carries on uncached.
	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"write_errors"`
}

// Store is one journal directory. All methods are safe for concurrent use
// by multiple goroutines, and the on-disk protocol is safe under multiple
// concurrent writer processes sharing the directory.
type Store struct {
	dir string

	mu       sync.Mutex
	manifest *os.File

	hits, misses, corrupt, writes, writeErrors atomic.Int64
}

// Open creates (if needed) and opens a journal directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cellstore: empty journal directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cellstore: %w", err)
	}
	m, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cellstore: %w", err)
	}
	return &Store{dir: dir, manifest: m}, nil
}

// Dir returns the journal directory.
func (s *Store) Dir() string { return s.dir }

// Close flushes and closes the manifest. Value files need no flushing: each
// is complete the instant its rename lands.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest == nil {
		return nil
	}
	err := s.manifest.Sync()
	if cerr := s.manifest.Close(); err == nil {
		err = cerr
	}
	s.manifest = nil
	return err
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Corrupt:     s.corrupt.Load(),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrors.Load(),
	}
}

// path is the value file of a key.
func (s *Store) path(key Key) string {
	return filepath.Join(s.dir, string(key)+".cell")
}

// Get returns the journaled payload for key, or ok=false on a miss. Every
// failure mode — absent file, torn write, checksum mismatch, stale schema,
// foreign key — is a miss; Get never returns unverified bytes.
func (s *Store) Get(key Key) ([]byte, bool) {
	return Load(s, key, func(payload []byte) ([]byte, error) { return payload, nil })
}

// Load is Get for a caller that decodes the payload: the lookup counts as a
// hit only once decode accepts the verified payload. A payload decode
// refuses is a miss, counted as corrupt like a value that fails its
// checksum, so Stats never counts a value the caller could not use.
func Load[T any](s *Store, key Key, decode func([]byte) (T, error)) (T, bool) {
	var v T
	if !key.valid() {
		s.misses.Add(1)
		return v, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return v, false
	}
	payload, err := decodeValue(key, data)
	if err == nil {
		v, err = decode(payload)
	}
	if err != nil {
		s.misses.Add(1)
		s.corrupt.Add(1)
		return *new(T), false
	}
	s.hits.Add(1)
	return v, true
}

// Put journals payload under key: the framed value is written to a
// temporary file in the journal directory and atomically renamed into
// place, so concurrent readers (and writers racing on the same key — the
// payload is deterministic in the key, so last-rename-wins is harmless)
// never observe a partial value.
func (s *Store) Put(key Key, payload []byte) error {
	err := s.put(key, payload)
	if err != nil {
		s.writeErrors.Add(1)
		return err
	}
	s.writes.Add(1)
	return nil
}

func (s *Store) put(key Key, payload []byte) error {
	if !key.valid() {
		return fmt.Errorf("cellstore: invalid key %q", key)
	}
	f, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("cellstore: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(encodeValue(key, payload))
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Chmod(tmp, 0o644)
	}
	if werr == nil {
		werr = os.Rename(tmp, s.path(key))
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("cellstore: %w", werr)
	}
	return nil
}

// encodeValue frames a payload: a single header line carrying the magic,
// schema version, owning key, payload checksum and payload length, then the
// raw payload. Truncation breaks the length, corruption breaks the
// checksum, and a renamed/copied file breaks the key — each is detectable.
func encodeValue(key Key, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %d %s %s %d\n", magic, SchemaVersion, key, hex.EncodeToString(sum[:]), len(payload))
	return append([]byte(header), payload...)
}

// decodeValue verifies a framed value read for key and returns its payload.
func decodeValue(key Key, data []byte) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("cellstore: no header")
	}
	fields := bytes.Fields(data[:nl])
	if len(fields) != 5 {
		return nil, fmt.Errorf("cellstore: malformed header")
	}
	if string(fields[0]) != magic {
		return nil, fmt.Errorf("cellstore: bad magic")
	}
	version, err := strconv.Atoi(string(fields[1]))
	if err != nil || version != SchemaVersion {
		return nil, fmt.Errorf("cellstore: stale schema version %s", fields[1])
	}
	if string(fields[2]) != string(key) {
		return nil, fmt.Errorf("cellstore: value belongs to key %s", fields[2])
	}
	length, err := strconv.Atoi(string(fields[4]))
	if err != nil || length < 0 {
		return nil, fmt.Errorf("cellstore: malformed length")
	}
	payload := data[nl+1:]
	if len(payload) != length {
		return nil, fmt.Errorf("cellstore: truncated value: %d of %d payload bytes", len(payload), length)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != string(fields[3]) {
		return nil, fmt.Errorf("cellstore: checksum mismatch")
	}
	return payload, nil
}
