package ooo

import (
	"encoding/json"
	"testing"

	"redsoc/internal/timing"
)

// TestDelayHistogramJSON pins the sparse JSON form: the non-zero (bin,
// count) pairs in ascending bin order, decoding back to the same array.
func TestDelayHistogramJSON(t *testing.T) {
	var h DelayHistogram
	h[0], h[212], h[timing.ClockPS] = 3, 40, 1<<40
	data, err := json.Marshal(struct{ H DelayHistogram }{h})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"H":[0,3,212,40,500,1099511627776]}`; string(data) != want {
		t.Fatalf("got %s, want %s", data, want)
	}
	var back struct{ H DelayHistogram }
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.H != h {
		t.Fatal("histogram does not round-trip")
	}
	var empty DelayHistogram
	if data, _ := empty.MarshalJSON(); string(data) != "[]" {
		t.Fatalf("empty histogram encodes as %s, want []", data)
	}
	if err := empty.UnmarshalJSON([]byte("[]")); err != nil {
		t.Fatal(err)
	}
}

// TestDelayHistogramRejects: the decoder accepts only what the encoder
// writes, so every accepted form re-encodes to the same bytes.
func TestDelayHistogramRejects(t *testing.T) {
	for _, in := range []string{
		``, `null`, `[`, `{}`, `[1]`, `[1,2,3]`, `[1,]`, `[,1]`,
		`[501,1]`,          // bin out of range
		`[5,1,5,1]`,        // repeated bin
		`[6,1,5,1]`,        // descending bins
		`[5,0]`,            // zero count
		`[5,-1]`, `[-5,1]`, // signs
		`[05,1]`, `[5,01]`, // leading zeros
		`[5, 1]`, `[ 5,1]`, // whitespace
		`[5,1.0]`, `[5,1e2]`, // non-integers
		`[5,9223372036854775808]`, // count overflows int64
	} {
		var h DelayHistogram
		h[7] = 1
		if err := h.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("%q decoded, want an error", in)
		}
		if h[7] != 1 {
			t.Errorf("%q: a rejected decode modified the histogram", in)
		}
	}
}
