package cellstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
)

// keyHexLen is the length of a Key: a hex-encoded SHA-256 digest.
const keyHexLen = 2 * sha256.Size

// Key addresses one cell: the hex SHA-256 of its canonical fingerprint. It
// doubles as the value's file name, which is what makes the journal
// content-addressed — identical work lands on the identical file no matter
// which campaign, process or machine computed it.
type Key string

func (k Key) valid() bool {
	if len(k) != keyHexLen {
		return false
	}
	for _, c := range k {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Fingerprint accumulates the canonical identity of a cell. Every component
// is framed (length-prefixed name and canonical-JSON value), so distinct
// field sequences can never collide by concatenation, and the schema
// version is folded in first so behavioral revisions invalidate the whole
// journal at once. Canonical JSON — struct fields in declaration order,
// map keys sorted — is what encoding/json already guarantees, which makes
// the digest reproducible across processes and platforms.
type Fingerprint struct {
	h    hash.Hash
	kind string
	buf  []byte // frame's scratch for a field's length-prefixed name
}

// NewFingerprint starts a fingerprint for one kind of cell ("grid-cell",
// "sweep-total", "chaos-cell", ...). The kind partitions the key space so
// cells of different shapes can never alias.
func NewFingerprint(kind string) *Fingerprint {
	f := &Fingerprint{h: sha256.New(), kind: kind}
	f.frame("kind", []byte(kind))
	f.frame("schema", binary.BigEndian.AppendUint64(nil, SchemaVersion))
	return f
}

// Field folds one named component into the fingerprint. v is serialized as
// canonical JSON; a value that cannot marshal (channels, cycles, NaN) is a
// caller bug and panics, since a silently wrong fingerprint would be a
// correctness hole.
func (f *Fingerprint) Field(name string, v any) *Fingerprint {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("cellstore: fingerprint field %s does not marshal: %v", name, err)) //lint:allow panicpolicy audited invariant: fingerprinted values are plain config/result structs; a non-marshalable one is a compile-time-shaped bug, and hashing a wrong fingerprint would silently alias distinct cells
	}
	return f.Bytes(name, data)
}

// Bytes folds one named raw-byte component (e.g. a precomputed workload
// digest) into the fingerprint.
func (f *Fingerprint) Bytes(name string, data []byte) *Fingerprint {
	f.frame(name, data)
	return f
}

// frame writes a length-prefixed (name, value) pair into the digest. The
// prefixes and name go through one reused buffer, not a conversion per
// field; the digest sees the same bytes.
func (f *Fingerprint) frame(name string, data []byte) {
	b := binary.BigEndian.AppendUint64(f.buf[:0], uint64(len(name)))
	b = binary.BigEndian.AppendUint64(append(b, name...), uint64(len(data)))
	f.h.Write(b)
	f.h.Write(data)
	f.buf = b
}

// Key finalizes the fingerprint. The Fingerprint must not be reused after.
func (f *Fingerprint) Key() Key {
	return Key(hex.EncodeToString(f.h.Sum(nil)))
}

// DigestJSON is the canonical digest of one value on its own — the helper
// for precomputing workload/trace fingerprints that are then folded into
// many cell fingerprints via Bytes.
func DigestJSON(v any) []byte {
	f := NewFingerprint("digest")
	f.Field("v", v)
	return f.h.Sum(nil)
}
