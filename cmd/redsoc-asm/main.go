// Command redsoc-asm assembles a program written in the simulator's
// assembly dialect, traces it through the interpreter, and runs the dynamic
// stream on a core under the chosen scheduler — comparing the simulator's
// architectural results against the interpreter's.
//
// Usage:
//
//	redsoc-asm [-core big] [-policy redsoc] [-compare] prog.s
//
// See internal/asm's package documentation for the dialect.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"redsoc/internal/asm"
	"redsoc/internal/baseline"
	"redsoc/internal/isa"
	"redsoc/internal/ooo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("redsoc-asm: ")
	coreName := flag.String("core", "big", "core: big, medium or small")
	policyName := flag.String("policy", "redsoc", "scheduler: baseline, redsoc, mos, loaddelay or speclsq")
	compare := flag.Bool("compare", false, "run every scheduler and compare")
	maxSteps := flag.Int("max-steps", 0, "dynamic instruction cap (0 = default)")
	trace := flag.Bool("trace", false, "print the pipeline event trace (small programs!)")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: redsoc-asm [flags] prog.s")
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	prog, err := asm.Assemble(flag.Arg(0), string(src))
	if err != nil {
		log.Fatal(err)
	}
	tr, err := prog.Trace(*maxSteps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assembled %d static instructions, traced %d dynamic instructions\n",
		prog.Len(), tr.Steps)

	cfg, err := ooo.ParseCore(*coreName)
	if err != nil {
		log.Fatal(err)
	}

	if *compare {
		cmp, err := baseline.Compare(context.Background(), cfg, tr.Prog, baseline.DefaultThreshold(cfg))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("baseline %d cycles | redsoc %d (%+.1f%%) | ts %+.1f%% | mos %+.1f%% | loaddelay %+.1f%% | speclsq %+.1f%%\n",
			cmp.Baseline.Cycles, cmp.Redsoc.Cycles,
			100*(cmp.RedsocSpeedup()-1), 100*(cmp.TSSpeedup()-1), 100*(cmp.MOSSpeedup()-1),
			100*(cmp.LoadDelaySpeedup()-1), 100*(cmp.SpecLSQSpeedup()-1))
		verify(cmp.Redsoc, tr)
		return
	}

	policy, err := ooo.ParsePolicy(strings.ToLower(*policyName))
	if err != nil {
		log.Fatal(err)
	}
	sim, err := ooo.New(cfg.WithPolicy(policy), tr.Prog)
	if err != nil {
		log.Fatal(err)
	}
	if *trace {
		sim.SetTracer(os.Stdout)
	}
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s/%s: %d cycles, IPC %.3f, %d recycled ops\n",
		cfg.Name, policy, res.Cycles, res.IPC(), res.RecycledOps)
	verify(res, tr)
	for r := 0; r < isa.NumIntRegs; r++ {
		if v := res.FinalRegs[isa.R(r)].Lo; v != 0 {
			fmt.Printf("  r%-2d = %d (%#x)\n", r, v, v)
		}
	}
}

// verify cross-checks the simulator against the interpreter.
func verify(res *ooo.Result, tr *asm.TraceResult) {
	for r := 0; r < isa.NumIntRegs; r++ {
		if res.FinalRegs[isa.R(r)].Lo != tr.Regs[r] {
			log.Fatalf("MISMATCH r%d: simulator %#x, interpreter %#x",
				r, res.FinalRegs[isa.R(r)].Lo, tr.Regs[r])
		}
	}
	for a, v := range tr.Mem {
		if res.FinalMem[a] != v {
			log.Fatalf("MISMATCH mem[%#x]: simulator %#x, interpreter %#x", a, res.FinalMem[a], v)
		}
	}
	fmt.Println("architectural state verified against the interpreter")
}
