package harness

import (
	"fmt"
	"io"
	"strings"

	"redsoc/internal/stats"
)

// WriteMarkdown renders the grid's paper-versus-measured record as a
// markdown document — the machine-generated core of EXPERIMENTS.md. The
// hand-written EXPERIMENTS.md at the repo root adds analysis; this function
// lets `redsoc-bench -md` regenerate the raw numbers section on demand.
func (g *Grid) WriteMarkdown(w io.Writer) error {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("# ReDSOC evaluation — generated results\n\n")
	p("Produced by the harness; deterministic for a given scale.\n\n")

	p("## Fig. 13 — ReDSOC speedup over baseline\n\n")
	p("| benchmark |")
	for _, core := range []string{"Big", "Medium", "Small"} {
		p(" %s |", core)
	}
	p("\n|---|---|---|---|\n")
	for _, name := range g.benchmarkNames() {
		p("| %s |", name)
		for _, core := range []string{"Big", "Medium", "Small"} {
			p(" %s |", g.redsocCell(name, core))
		}
		p("\n")
	}
	for _, class := range Classes() {
		p("| **%s-MEAN** |", class)
		for _, core := range []string{"Big", "Medium", "Small"} {
			p(" **%+.1f%%** (paper %+.0f%%) |",
				g.ClassMeanSpeedup(class, core), PaperFig13Means[class][core])
		}
		p("\n")
	}

	p("\n## Fig. 15 — comparison with TS and MOS (class means)\n\n")
	p("| core:class | ReDSOC | TS | MOS |\n|---|---|---|---|\n")
	for _, core := range []string{"Big", "Medium", "Small"} {
		for _, class := range Classes() {
			rd, ts, mos := g.fig15Means(class, core)
			p("| %s:%s | %+.1f%% | %+.1f%% | %+.1f%% |\n", core, class, rd, ts, mos)
		}
	}

	p("\n## Fig. 11 / Fig. 12 / Fig. 14 — scheduler statistics\n\n")
	p("| class | core | seq EV | tag mispredict | FU stalls (base→redsoc) |\n|---|---|---|---|---|\n")
	for _, class := range Classes() {
		for _, core := range []string{"Big", "Medium", "Small"} {
			if len(g.CellsOf(class, core)) == 0 {
				continue
			}
			st := g.schedStats(class, core)
			p("| %s | %s | %.2f | %s | %s → %s |\n", class, core, st.seqEV,
				stats.Pct(st.tagMispredict), stats.Pct(st.stallBase), stats.Pct(st.stallRedsoc))
		}
	}

	p("\n## Sec. VI-C — thresholds and power\n\n")
	p("| class | threshold (B/M/S) | power saving (B/M/S) | paper power range |\n|---|---|---|---|\n")
	ranges := map[Class]string{ClassSPEC: "8-15%", ClassMiB: "12-36%", ClassML: "8-18%"}
	for _, class := range Classes() {
		th := g.ChosenThreshold[class]
		if th == nil {
			continue
		}
		var pows []string
		for _, core := range []string{"Big", "Medium", "Small"} {
			sp := 1 + g.ClassMeanSpeedup(class, core)/100
			pows = append(pows, stats.Pct(stats.PowerSavings(sp, 2.0)))
		}
		p("| %s | %d/%d/%d | %s | %s |\n", class,
			th["Big"], th["Medium"], th["Small"], strings.Join(pows, " / "), ranges[class])
	}
	return nil
}
