package trace

import (
	"runtime"
	"testing"
	"time"

	"redsoc/internal/isa"
)

// TestDecodeCachedDiesWithProgram: a program's shared decode lives exactly
// as long as the program. While the program is held, every call returns
// the one decode; once it is dropped, the decode is collected with it. (The
// finalizer sits on a column, not on the Decoded, which points back at its
// program: a finalizer inside a cycle would keep the cycle alive.)
func TestDecodeCachedDiesWithProgram(t *testing.T) {
	collected := make(chan struct{})
	func() {
		instrs := make([]isa.Instruction, 64)
		for i := range instrs {
			instrs[i] = isa.Instruction{Op: isa.OpMOV, Dst: isa.R(1)}
		}
		p := &isa.Program{Name: "dropped", Instrs: instrs}
		d := DecodeCached(p)
		if DecodeCached(p) != d {
			t.Fatal("a held program's second decode is not its first")
		}
		runtime.SetFinalizer(&d.Bits[0], func(*InstrBits) { close(collected) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped program's decode was never collected")
}

func TestSortU64(t *testing.T) {
	a := []uint64{5, 1, 9, 3, 3, 0, 1 << 60}
	sortU64(a)
	for i := 1; i < len(a); i++ {
		if a[i-1] > a[i] {
			t.Fatalf("unsorted: %v", a)
		}
	}
}
