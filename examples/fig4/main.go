// fig4 reproduces the paper's Fig. 4/5 worked example with the obs event
// stream printed live: a three-operation dependency chain whose per-op
// computation times leave recyclable slack. Under the baseline each
// operation clocks at a cycle edge (3 cycles of execution); under ReDSOC the
// consumers start the instant their producer's value stabilizes, and the
// issue lines show the mid-cycle execution windows, the recycled and EGPW
// issues and the 2-cycle FU hold.
package main

import (
	"fmt"
	"os"

	"redsoc/internal/isa"
	"redsoc/internal/obs"
	"redsoc/internal/ooo"
	"redsoc/internal/workload"
)

func build() *isa.Program {
	b := workload.NewBuilder("fig4")
	b.MovImm(isa.R(1), 0x12345) // x1 operand (w32-ish: a slower add)
	b.MovImm(isa.R(2), 0x77)
	b.MovImm(isa.R(3), 0x0F)
	// The chain of Fig. 4a: x1 -> x2 -> x3, with decreasing computation
	// times (arith w32 ~6 ticks, shift ~5 ticks, logic ~4 ticks).
	b.At(0x2000)
	b.Op3(isa.OpADD, isa.R(4), isa.R(1), isa.R(2)) // x1: f(...)
	b.At(0x2004)
	b.Shift(isa.OpLSR, isa.R(5), isa.R(4), 3) // x2 depends on x1
	b.At(0x2008)
	b.Op3(isa.OpEOR, isa.R(6), isa.R(5), isa.R(3)) // x3 depends on x2
	b.At(0x200c)
	b.Op3(isa.OpORR, isa.R(7), isa.R(6), isa.R(2)) // x4: the slack crosses a cycle
	// The "true synchronous" op after the chain (the paper's store): it
	// clocks at the next edge, one cycle earlier than the baseline.
	b.Store(isa.R(7), isa.R(0), 0x9000)
	return b.Build()
}

func trace(policy ooo.Policy) {
	sim, err := ooo.New(ooo.BigConfig().WithPolicy(policy), build())
	if err != nil {
		panic(err)
	}
	fmt.Printf("--- %v ---\n", policy)
	text := obs.NewTextSink(os.Stdout, sim.Clock().TicksPerCycle())
	sim.SetObserver(text)
	res, err := sim.Run()
	if err != nil {
		panic(err)
	}
	if err := text.Err(); err != nil {
		panic(err)
	}
	fmt.Printf("total: %d cycles, %d recycled ops\n\n", res.Cycles, res.RecycledOps)
}

func main() {
	fmt.Println("The paper's Fig. 4 scenario: a 3-op chain with decreasing delays,")
	fmt.Println("followed by a synchronous store. Execution windows print as")
	fmt.Println("cycle.tick with 8 ticks per cycle.")
	fmt.Println()
	trace(ooo.PolicyBaseline)
	trace(ooo.PolicyRedsoc)
}
