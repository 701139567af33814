// assembly shows the textual path into the simulator: write a kernel in the
// assembly dialect (with real loops and conditional branches), let the
// interpreter trace it, and compare schedulers on the resulting stream.
// The kernel is a population count over a table, the bitcnt hot loop.
package main

import (
	"context"
	"fmt"

	"redsoc/internal/asm"
	"redsoc/internal/baseline"
	"redsoc/internal/ooo"
)

const popcount = `
        ; popcount over 64 words at 0x1000 via Kernighan's loop
        MOV   r1, #0x1000      ; cursor
        MOV   r9, #0x1200      ; limit
        MOV   r10, #0          ; total
outer:  LDR   r2, [r1]
inner:  CBZ   r2, next
        SUB   r3, r2, #1
        AND   r2, r2, r3
        ADD   r10, r10, #1
        B     inner
next:   ADD   r1, r1, #8
        CMP   r1, r9
        BNE   outer
        STR   r10, [r0, #0x4000]
        HALT
`

func main() {
	// Seed 64 words of data via .word directives appended programmatically.
	src := popcount
	want := 0
	for i := 0; i < 64; i++ {
		v := uint64(i) * 0x9E3779B97F4A7C15 // golden-ratio hashing: varied widths
		v &= (1 << (8 + i%24)) - 1
		src = fmt.Sprintf(".word %#x %#x\n", 0x1000+8*i, v) + src
		for x := v; x != 0; x &= x - 1 {
			want++
		}
	}
	tr := asm.MustTrace("popcount", src)
	fmt.Printf("traced %d dynamic instructions; interpreter popcount = %d (expected %d)\n",
		tr.Steps, tr.Mem[0x4000], want)

	for _, cfg := range []ooo.Config{ooo.BigConfig(), ooo.SmallConfig()} {
		cmp, err := baseline.Compare(context.Background(), cfg, tr.Prog, baseline.DefaultThreshold(cfg))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-6s baseline %5d cycles | ReDSOC %5d (%+.1f%%) | TS %+.1f%% | fusion %+.1f%%\n",
			cfg.Name, cmp.Baseline.Cycles, cmp.Redsoc.Cycles,
			100*(cmp.RedsocSpeedup()-1), 100*(cmp.TSSpeedup()-1), 100*(cmp.MOSSpeedup()-1))
	}
}
