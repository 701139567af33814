package harness

import (
	"bytes"
	"slices"
	"testing"

	"redsoc/internal/ooo"
)

// FuzzDecodeCell feeds arbitrary bytes to the journal's cell and sweep-total
// decoders. They must never panic — a corrupt journal value is a cache
// miss, not a crash — and what they accept must be canonical: a cell
// payload that decodes re-encodes to the same bytes, and so does a sweep
// total. Seeds: a real v7 cell and its truncations, the same cell in v6's
// and v5's shapes, a sweep total, and the v7 cell followed by v6's
// architectural-state section.
func FuzzDecodeCell(f *testing.F) {
	cfg := ooo.SmallConfig()
	c := quickCell(f, "crc")
	data, err := encodeCell(c, cfg)
	if err != nil {
		f.Fatal(err)
	}
	for n := len(data); n > 0; n -= len(data)/16 + 1 {
		f.Add(data[:n])
	}
	f.Add(v6Payload(data))
	f.Add(jsonPayload(f, 5, c))
	total, err := encodeTotal(3.25)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(total)
	f.Add(append(slices.Clip(data), archSection...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := decodeCell(data, taskOf(c, cfg)); err == nil {
			if re, err := encodeCell(got, cfg); err != nil || !bytes.Equal(re, data) {
				t.Fatalf("cell %x decodes but re-encodes as %x (err %v)", data, re, err)
			}
		}
		if v, err := decodeTotal(data); err == nil {
			if re, _ := encodeTotal(v); !bytes.Equal(re, data) {
				t.Fatalf("sweep total %x decodes but re-encodes as %x", data, re)
			}
		}
	})
}
