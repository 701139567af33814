package harness

import (
	"bytes"
	"testing"

	"redsoc/internal/alu"
	"redsoc/internal/baseline"
	"redsoc/internal/isa"
	"redsoc/internal/ooo"
)

// FuzzDecodeCell feeds arbitrary bytes to the journal's cell decoder. It
// must never panic — a corrupt journal value is a cache miss, not a crash —
// and the encodings it accepts must be canonical: an architectural-state
// section that decodes re-encodes to the same bytes, and so does a delay
// histogram's JSON. Seeds: a real v5 payload and its truncations, the same
// cell in v4's shape, a small section and a real histogram.
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
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		f.Add(data[:i+1])
	}
	f.Add(v4Payload(f, data, baseline.EngineConfigs(cfg, c.Threshold)))
	// A small section behind an empty head reaches decodeArch cheaply.
	f.Add(appendArch([]byte("{}\n"), archState{
		Regs:  map[isa.Reg]alu.Value{isa.R(1): {Lo: 300}, isa.V(2): {Lo: 1, Hi: 1 << 63}},
		Mem:   map[uint64]uint64{0x1000: 7, 0x1008: 0, 0x2000: 1 << 40},
		Flags: alu.Flags{Z: true, V: true},
	}))
	hist, err := c.Cmp.Baseline.DelayHistogram.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hist)

	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := decodeCell(data, c.Benchmark, cfg, new(archCache)); err == nil && got.Cmp == nil {
			t.Fatal("decodeCell accepted a payload without a comparison")
		}
		if _, section, ok := bytes.Cut(data, []byte{'\n'}); ok {
			if a, err := decodeArch(section); err == nil {
				if re := appendArch(nil, a); !bytes.Equal(re, section) {
					t.Fatalf("section %x decodes but re-encodes as %x", section, re)
				}
			}
		}
		var h ooo.DelayHistogram
		if h.UnmarshalJSON(data) == nil {
			if re, _ := h.MarshalJSON(); !bytes.Equal(re, data) {
				t.Fatalf("histogram %q decodes but re-encodes as %q", data, re)
			}
		}
	})
}
