package predict

import (
	"reflect"
	"testing"

	"redsoc/internal/isa"
)

// TestResetMatchesNew: a predictor trained at one table size and reset to
// another — smaller, equal or larger — is deep-equal to a freshly built one
// of the target size: no entry, history bit or counter carries over.
func TestResetMatchesNew(t *testing.T) {
	for _, from := range []int{64, 256, 1024} {
		for _, to := range []int{64, 256, 1024} {
			w := NewWidthPredictor(from, 3)
			l := NewLastArrivalPredictor(from)
			b := NewBranchPredictor(from, 6)
			d := NewLoadDelayTracker(from)
			for pc := uint64(0); pc < 4*uint64(from); pc += 4 {
				w.Update(pc, w.Predict(pc), isa.Width8)
				w.Poison(pc+1, isa.Width16)
				l.Update(pc, l.Predict(pc), 1)
				l.Flip(pc + 8)
				b.Update(pc, pc%12 != 0)
				d.Update(pc, d.Predict(pc, 2), 7)
			}
			w.Reset(to, DefaultConfidenceBits)
			l.Reset(to)
			b.Reset(to, DefaultHistoryBits)
			d.Reset(to)
			for _, c := range []struct {
				name      string
				got, want any
			}{
				{"width", w, NewWidthPredictor(to, DefaultConfidenceBits)},
				{"last-arrival", l, NewLastArrivalPredictor(to)},
				{"branch", b, NewBranchPredictor(to, DefaultHistoryBits)},
				{"load-delay", d, NewLoadDelayTracker(to)},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Errorf("%s predictor trained at %d entries, reset to %d: differs from a fresh one", c.name, from, to)
				}
			}
		}
	}
}
