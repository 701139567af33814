// Command redsoc-trace works with serialized dynamic traces:
//
//	redsoc-trace dump -bench crc out.trc     serialize a named benchmark
//	redsoc-trace info in.trc                 op mix + dependency statistics
//	redsoc-trace run  -core big -policy redsoc in.trc
//	redsoc-trace disasm in.trc               print the instruction stream
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"redsoc/internal/harness"
	"redsoc/internal/isa"
	"redsoc/internal/ooo"
	"redsoc/internal/stats"
	"redsoc/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("redsoc-trace: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: redsoc-trace dump|info|run|disasm ...")
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "dump":
		dump(args)
	case "info":
		info(args)
	case "run":
		runTrace(args)
	case "disasm":
		disasm(args)
	default:
		log.Fatalf("unknown subcommand %q", cmd)
	}
}

func load(path string) *isa.Program {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	p, err := trace.Read(f)
	if err != nil {
		log.Fatal(err)
	}
	return p
}

func dump(args []string) {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	bench := fs.String("bench", "crc", "benchmark to serialize")
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("usage: redsoc-trace dump -bench NAME out.trc")
	}
	b, err := harness.FindBenchmark(append(harness.Benchmarks(harness.Full), harness.Extras()...), *bench)
	if err != nil {
		log.Fatal(err)
	}
	prog := b.Prog
	f, err := os.Create(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := trace.Write(f, prog); err != nil {
		log.Fatal(err)
	}
	st, _ := f.Stat()
	fmt.Printf("wrote %s: %d instructions, %d bytes\n", fs.Arg(0), prog.Len(), st.Size())
}

func info(args []string) {
	if len(args) != 1 {
		log.Fatal("usage: redsoc-trace info in.trc")
	}
	p := load(args[0])
	fmt.Printf("%s: %d dynamic instructions, %d initial memory words\n",
		p.Name, p.Len(), len(p.Mem))

	// Static/dynamic footprint and class mix.
	classes := map[isa.Class]int{}
	pcs := map[uint64]bool{}
	branches, taken := 0, 0
	for i := range p.Instrs {
		in := &p.Instrs[i]
		classes[in.Op.Class()]++
		pcs[in.PC] = true
		if in.Op == isa.OpB {
			branches++
			if in.Taken {
				taken++
			}
		}
	}
	fmt.Printf("static footprint: %d PCs\n", len(pcs))
	if branches > 0 {
		fmt.Printf("branches: %d (%.1f%% taken)\n", branches, 100*float64(taken)/float64(branches))
	}
	t := stats.NewTable("class mix", "class", "count", "share")
	for c := isa.Class(0); c < isa.Class(isa.NumClasses); c++ {
		if n := classes[c]; n > 0 {
			t.Row(c, n, stats.Pct(float64(n)/float64(p.Len())))
		}
	}
	t.Render(os.Stdout)

	// Dependency structure: register dataflow depth.
	depth := map[isa.Reg]int{}
	maxDepth, sumDepth := 0, 0
	for i := range p.Instrs {
		in := &p.Instrs[i]
		d := 0
		for _, r := range in.Sources(nil) {
			if depth[r] > d {
				d = depth[r]
			}
		}
		d++
		if dst := in.DestReg(); dst.Valid() {
			depth[dst] = d
		}
		sumDepth += d
		if d > maxDepth {
			maxDepth = d
		}
	}
	fmt.Printf("register dataflow: critical depth %d ops (%.1f%% of trace), mean op depth %.1f\n",
		maxDepth, 100*float64(maxDepth)/float64(p.Len()), float64(sumDepth)/float64(p.Len()))
}

func runTrace(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	coreName := fs.String("core", "big", "core: big, medium or small")
	policyName := fs.String("policy", "redsoc", "scheduler: "+strings.Join(ooo.PolicyNames(), ", "))
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("usage: redsoc-trace run [-core ...] [-policy ...] in.trc")
	}
	p := load(fs.Arg(0))
	cfg, err := ooo.ParseCore(*coreName)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := ooo.ParsePolicy(strings.ToLower(*policyName))
	if err != nil {
		log.Fatal(err)
	}
	res, err := ooo.Run(cfg.WithPolicy(pol), p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %s/%s: %d cycles, IPC %.3f, %d recycled\n",
		p.Name, cfg.Name, pol, res.Cycles, res.IPC(), res.RecycledOps)
}

func disasm(args []string) {
	if len(args) != 1 {
		log.Fatal("usage: redsoc-trace disasm in.trc")
	}
	p := load(args[0])
	for i := range p.Instrs {
		in := &p.Instrs[i]
		extra := ""
		if in.Op == isa.OpB {
			if in.Taken {
				extra = " (taken)"
			} else {
				extra = " (not taken)"
			}
		}
		fmt.Printf("%6d  %#06x  %s%s\n", i, in.PC, in, extra)
	}
}
