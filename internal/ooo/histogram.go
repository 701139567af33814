package ooo

import (
	"errors"
	"math"
	"strconv"

	"redsoc/internal/timing"
)

// DelayHistogram counts a run's single-cycle ops by actual delay: bin d
// holds the ops that settled in d ps, for d in [0, timing.ClockPS]. Timing
// speculation picks its overclocked period from it (baseline.ChoosePeriod).
//
// Its JSON form is sparse: the flat list of the non-zero (bin, count) pairs
// in ascending bin order, e.g. [212,40,300,7] — most of the 501 bins of a
// real run are empty, so this keeps a journaled cell small. The form is
// canonical: the decoder accepts exactly what the encoder writes (no
// whitespace, no signs or leading zeros, strictly ascending in-range bins,
// non-zero counts), so equal histograms always serialize to equal bytes.
// Counts only ever grow from zero; a negative one would encode but not
// decode, which a journal reader treats as a cache miss.
type DelayHistogram [timing.ClockPS + 1]int64

// MarshalJSON writes the sparse (bin, count) list.
func (h DelayHistogram) MarshalJSON() ([]byte, error) {
	out := append(make([]byte, 0, 64), '[')
	for bin, n := range h {
		if n == 0 {
			continue
		}
		if len(out) > 1 {
			out = append(out, ',')
		}
		out = strconv.AppendInt(out, int64(bin), 10)
		out = append(out, ',')
		out = strconv.AppendInt(out, n, 10)
	}
	return append(out, ']'), nil
}

var errHistogram = errors.New("ooo: malformed delay histogram")

// UnmarshalJSON reads the sparse (bin, count) list, rejecting anything the
// encoder would not have written.
func (h *DelayHistogram) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '[' || data[len(data)-1] != ']' {
		return errHistogram
	}
	var out DelayHistogram
	body := data[1 : len(data)-1]
	bin, n := -1, 0
	for ; len(body) > 0; n++ {
		if n > 0 {
			if body[0] != ',' {
				return errHistogram
			}
			body = body[1:]
		}
		v, rest, ok := cutUint(body)
		if !ok {
			return errHistogram
		}
		body = rest
		if n%2 == 0 {
			if v > timing.ClockPS || int(v) <= bin {
				return errHistogram
			}
			bin = int(v)
		} else {
			if v == 0 {
				return errHistogram
			}
			out[bin] = int64(v)
		}
	}
	if n%2 != 0 {
		return errHistogram
	}
	*h = out
	return nil
}

// cutUint reads one canonical unsigned decimal (no leading zeros) that fits
// an int64 from the front of b.
func cutUint(b []byte) (v uint64, rest []byte, ok bool) {
	i := 0
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > (math.MaxInt64-d)/10 {
			return 0, nil, false
		}
		v = v*10 + d
	}
	if i == 0 || (b[0] == '0' && i > 1) {
		return 0, nil, false
	}
	return v, b[i:], true
}
