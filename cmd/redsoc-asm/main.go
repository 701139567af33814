// Command redsoc-asm assembles a program written in the simulator's
// assembly dialect, traces it through the interpreter, and runs the dynamic
// stream on a core under the chosen scheduler. The engine checks every run
// against the architectural interpreter itself: a run whose final state
// differs fails, naming the first instruction that committed a wrong value.
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
	"redsoc/internal/obs"
	"redsoc/internal/ooo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("redsoc-asm: ")
	coreName := flag.String("core", "big", "core: big, medium or small")
	policyName := flag.String("policy", "redsoc", "scheduler: "+strings.Join(ooo.PolicyNames(), ", "))
	compare := flag.Bool("compare", false, "run every scheduler and compare")
	maxSteps := flag.Int("max-steps", 0, "dynamic instruction cap (0 = default)")
	trace := flag.Bool("trace", false, "print the obs pipeline event stream, one line per event (small programs!)")
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
		fmt.Printf("baseline %d cycles | redsoc %d (%+.1f%%) | ts %+.1f%%", cmp.Runs[ooo.PolicyBaseline].Cycles,
			cmp.Runs[ooo.PolicyRedsoc].Cycles, 100*(cmp.Speedup(ooo.PolicyRedsoc)-1), 100*(cmp.TS.Speedup-1))
		for p := ooo.PolicyRedsoc + 1; p < ooo.NumPolicies; p++ {
			fmt.Printf(" | %s %+.1f%%", p, 100*(cmp.Speedup(p)-1))
		}
		fmt.Println()
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
	var text *obs.TextSink
	if *trace {
		text = obs.NewTextSink(os.Stdout, sim.Clock().TicksPerCycle())
		sim.SetObserver(text)
	}
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	if text != nil && text.Err() != nil {
		log.Fatalf("writing the trace: %v", text.Err())
	}
	fmt.Printf("%s/%s: %d cycles, IPC %.3f, %d recycled ops\n",
		cfg.Name, policy, res.Cycles, res.IPC(), res.RecycledOps)
	for r := 0; r < isa.NumIntRegs; r++ {
		if v := res.FinalRegs[isa.R(r)].Lo; v != 0 {
			fmt.Printf("  r%-2d = %d (%#x)\n", r, v, v)
		}
	}
}
