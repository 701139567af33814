package harness

import (
	"bytes"
	"testing"

	"redsoc/internal/alu"
	"redsoc/internal/isa"
	"redsoc/internal/ooo"
)

// FuzzDecodeCell feeds arbitrary bytes to the journal's cell and sweep-total
// decoders. They must never panic — a corrupt journal value is a cache
// miss, not a crash — and what they accept must be canonical: a cell
// payload that decodes re-encodes to the same bytes, and so does a sweep
// total and an architectural-state section. Seeds: a real v6 cell and its
// truncations, the same cell in v5's shape, a sweep total and a small
// section.
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
	results, _ := splitCell(f, data)
	f.Add(results)
	f.Add(jsonPayload(f, 5, c))
	total, err := encodeTotal(3.25)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(total)
	f.Add(appendArch(nil, archState{
		Regs:  map[isa.Reg]alu.Value{isa.R(1): {Lo: 300}, isa.V(2): {Lo: 1, Hi: 1 << 63}},
		Mem:   map[uint64]uint64{0x1000: 7, 0x1008: 0, 0x2000: 1 << 40},
		Flags: alu.Flags{Z: true, V: true},
	}))

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
		if a, err := decodeArch(data); err == nil {
			if re := appendArch(nil, a); !bytes.Equal(re, data) {
				t.Fatalf("section %x decodes but re-encodes as %x", data, re)
			}
		}
	})
}
