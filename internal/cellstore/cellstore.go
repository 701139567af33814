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
//
// Reads allocate per result, not per value file: Load reads each value into
// a buffer the next Load reuses and hands its decoder the payload in place,
// so a decoder copies whatever it keeps (a string conversion, a map built
// from the bytes, a clone) and must not retain the slice itself. Get
// returns an owned copy.
package cellstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
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
// foreign key — is a miss; Get never returns unverified bytes. The payload
// is the caller's own copy.
func (s *Store) Get(key Key) ([]byte, bool) {
	return Load(s, key, func(payload []byte) ([]byte, error) { return bytes.Clone(payload), nil })
}

// Load is Get for a caller that decodes the payload: the lookup counts as a
// hit only once decode accepts the verified payload. A payload decode
// refuses is a miss, counted as corrupt like a value that fails its
// checksum, so Stats never counts a value the caller could not use. The
// payload decode sees lives in a read buffer that later Loads reuse, so
// decode must copy whatever it keeps of it.
func Load[T any](s *Store, key Key, decode func([]byte) (T, error)) (T, bool) {
	var v T
	if !key.valid() {
		s.misses.Add(1)
		return v, false
	}
	data, err := readValue(s.path(key))
	if err != nil {
		releaseBuf(data)
		s.misses.Add(1)
		return v, false
	}
	payload, err := decodeValue(key, data)
	if err == nil {
		v, err = decode(payload)
	}
	releaseBuf(data)
	if err != nil {
		s.misses.Add(1)
		s.corrupt.Add(1)
		return *new(T), false
	}
	s.hits.Add(1)
	return v, true
}

// readBufs holds Load's read buffers between calls: a free list capped at
// GOMAXPROCS buffers, as many as Loads can run at once, rather than a
// sync.Pool, which every garbage collection empties. A buffer keeps the
// largest capacity a value needed, up to maxKeptBuf; a larger one is
// dropped.
var readBufs struct {
	sync.Mutex
	list [][]byte
}

// maxKeptBuf bounds the read buffers the free list keeps, so one outsized
// file does not pin its size for the life of the process.
const maxKeptBuf = 1 << 20

// readValue reads the named file into a borrowed read buffer and returns
// its contents, which the caller hands back with releaseBuf.
func readValue(name string) ([]byte, error) {
	var buf []byte
	readBufs.Lock()
	if n := len(readBufs.list); n > 0 {
		buf = readBufs.list[n-1]
		readBufs.list[n-1] = nil
		readBufs.list = readBufs.list[:n-1]
	}
	readBufs.Unlock()
	if buf == nil {
		buf = make([]byte, 0, 16<<10)
	}
	f, err := os.Open(name)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// releaseBuf returns a buffer readValue lent to the free list.
func releaseBuf(buf []byte) {
	if cap(buf) > maxKeptBuf {
		return
	}
	readBufs.Lock()
	if len(readBufs.list) < runtime.GOMAXPROCS(0) {
		readBufs.list = append(readBufs.list, buf[:0])
	}
	readBufs.Unlock()
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

// decodeValue verifies a framed value read for key and returns its payload,
// a slice of data. It checks the header encodeValue writes field by field
// — magic, schema version, owning key, length, then the payload checksum —
// and allocates nothing unless the value fails.
func decodeValue(key Key, data []byte) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("cellstore: no header")
	}
	var fields [5][]byte
	if !headerFields(data[:nl], &fields) {
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
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	if string(hexSum[:]) != string(fields[3]) {
		return nil, fmt.Errorf("cellstore: checksum mismatch")
	}
	return payload, nil
}

// headerFields splits a header line at runs of ASCII white space into f
// and reports whether it holds exactly len(f) fields. encodeValue writes
// an ASCII line with single spaces.
func headerFields(line []byte, f *[5][]byte) bool {
	n := 0
	for i := 0; i < len(line); {
		if asciiSpace(line[i]) {
			i++
			continue
		}
		j := i
		for j < len(line) && !asciiSpace(line[j]) {
			j++
		}
		if n == len(f) {
			return false
		}
		f[n], n = line[i:j], n+1
		i = j
	}
	return n == len(f)
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r'
}
