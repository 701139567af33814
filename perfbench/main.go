// Command perfbench is the repository's benchmark. It drives the simulator
// from outside, through the public functions of each layer, and measures
// the three things its users wait on:
//
//	grid         the full-scale paper evaluation (harness.Run, 2 workers)
//	sim-compute  a closed loop of ooo.New + Run over L1-resident kernels
//	serve        an in-process redsoc-serve: one cache-miss job, then two
//	             closed-loop tenants resubmitting it as cache hits
//
// BENCHMARK.json lists sim-compute and serve; grid runs by name but is too
// sensitive to a shared host's load to be steady (see README.md).
//
// A run prints every metric with its unit and sample count, then one JSON
// result object as its last line, and exits nonzero when any output fails
// the correctness gate. With -trace 1 it records a span around every public
// call, writes the spans out as JSON lines and reports the per-layer
// metrics derived from them instead of the end-to-end ones.
//
//	go build -o perfbench . && ./perfbench -workload grid -seed 1 -seconds 20
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEnd and perLayer name every reported metric with its unit. Every
// workload reports every metric of its mode; BENCHMARK.json lists the same
// names, and README.md defines each one per workload.
var endToEnd = map[string]string{
	"setup_s":          "s",
	"wall_s":           "s",
	"sim_minstr_per_s": "Minstr/s",
	"job_miss_s":       "s",
	"job_hit_p50_ms":   "ms",
	"job_hit_p90_ms":   "ms",
	"alloc_mb":         "MB",
	"peak_rss_mb":      "MB",
}

var perLayer = map[string]string{
	"workload.build_ms":         "ms",
	"trace.decode_ns_per_instr": "ns",
	"ooo.new_us":                "us",
	"ooo.run_ns_per_instr":      "ns",
	"ooo.run_ns_per_cycle":      "ns",
	"ooo.allocs_per_run":        "count",
	"ooo.idle_cycle_frac":       "ratio",
	"ooo.ipc":                   "instr/cycle",
	"ooo.recycled_per_kinstr":   "count",
	"ooo.gpw_useful_frac":       "ratio",
	"ooo.lsq_misalloc_frac":     "ratio",
	"mem.l1_miss_rate":          "ratio",
	"mem.dram_per_kinstr":       "count",
	"baseline.ts_ms":            "ms",
	"harness.report_ms":         "ms",
	"harness.cell_cost_ms.p50":  "ms",
	"harness.cell_cost_ms.max":  "ms",
	"campaign.overhead_s":       "s",
	"campaign.straggler_s":      "s",
	"campaign.sweep_phase_s":    "s",
	"campaign.cell_phase_s":     "s",
	"cellstore.get_us.p50":      "us",
	"cellstore.get_us.p90":      "us",
	"cellstore.put_us":          "us",
	"cellstore.value_kb":        "kB",
	"cellstore.hits":            "count",
	"cellstore.misses":          "count",
	"cellstore.corrupt":         "count",
	"serve.submit_ms":           "ms",
	"serve.first_cell_ms":       "ms",
	"serve.report_fetch_ms":     "ms",
	"serve.queue_wait_ms":       "ms",
	"tracing.overhead_s":        "s",
	"tracing.overhead_pct":      "%",
}

// defaultSeed is the seed whose simulated cycle counts are pinned for
// sim-compute; any other seed is held-out data checked by the
// seed-independent gates only.
const defaultSeed = 1

// workers is the campaign worker count of the grid and of every serve job.
const workers = 2

// bench is one benchmark run: its inputs, budget, tracer and result.
type bench struct {
	seed    int64
	budget  time.Duration
	tr      *tracer // nil on an untraced run
	res     *result
	workDir string // scratch space inside the checkout (serve journals)
	update  bool   // rewrite the pinned expectations instead of checking them
	setupFn setupFn
	setups  []float64 // seconds per set-up rep
}

var workloads = map[string]func(*bench) error{
	"grid":        runGrid,
	"sim-compute": runSimCompute,
	"serve":       runServe,
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measurement budget in seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced end-to-end run")
	spansDir := fs.String("spans-dir", ".bench_build/spans", "where a traced run writes its spans")
	workDir := fs.String("work-dir", ".bench_build/work", "scratch directory for serve journals")
	commit := fs.String("commit", "unknown", "source revision recorded with the result")
	update := fs.Bool("update-expect", false, "rewrite the pinned cycle counts of this workload from this run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	b := &bench{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		res:     newResult(),
		workDir: *workDir,
		update:  *update,
	}
	want := endToEnd
	if *traced == 1 {
		b.tr = newTracer()
		want = perLayer
	}
	if err := fn(b); err != nil {
		b.res.fail("%s: %v", *name, err)
	}
	if b.tr == nil {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			b.set("peak_rss_mb", float64(ru.Maxrss)/1024, 1) // Maxrss is in KiB on Linux
		}
	} else {
		if err := b.tr.write(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)); err != nil {
			b.res.fail("%v", err)
		}
	}
	for m := range want {
		if _, ok := b.res.metrics[m]; !ok {
			b.res.fail("metric %s was not measured", m)
		}
	}
	env := map[string]string{
		"workload":   *name,
		"seed":       fmt.Sprint(*seed),
		"seconds":    fmt.Sprint(*seconds),
		"trace":      fmt.Sprint(*traced),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     *commit,
		"cpu":        cpuModel(),
	}
	if err := b.res.report(os.Stdout, env); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !b.res.ok() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// set records a metric under its declared unit.
func (b *bench) set(name string, v float64, n int) {
	unit, ok := endToEnd[name]
	if !ok {
		unit, ok = perLayer[name]
	}
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	b.res.set(name, unit, v, n)
}

// setupFn sets the workload up once. keep says whether its products are
// the ones the iterations use; a rep that only measures set-up discards
// them, so every iteration runs on the same inputs. It may return a stop
// function, which runs after the timed span.
type setupFn func(tr *tracer, keep bool) (stop func(), err error)

// setupReps is how many times a run sets up before its first iteration;
// setupRepsPerIter more reps run before every iteration, so setup_s is the
// median over reps spread across the whole run, like the iterations are.
const (
	setupReps        = 5
	setupRepsPerIter = 3
)

// setup sets the workload up setupReps times, keeping the last rep's
// products, and remembers fn so iterate can interleave further reps.
func (b *bench) setup(fn setupFn) error {
	b.setupFn = fn
	for i := 0; i < setupReps; i++ {
		if err := b.setupRep(i == setupReps-1); err != nil {
			return err
		}
	}
	return nil
}

// setupRep times one set-up from a collected heap.
func (b *bench) setupRep(keep bool) error {
	runtime.GC() // each rep starts from the same heap, not the last rep's garbage
	start := time.Now()
	stop, err := b.setupFn(b.tr, keep)
	if err != nil {
		return err
	}
	b.setups = append(b.setups, time.Since(start).Seconds())
	if stop != nil {
		stop()
	}
	return nil
}

// sample is one measured iteration.
type sample struct {
	wall   float64 // seconds, as the iteration defines its user-visible span
	allocs float64 // MB allocated during the iteration
}

// iterate runs body until the budget is spent and at least minIters (≥ 2)
// iterations ran. An untraced run calls body with a nil tracer every time;
// a traced run alternates untraced and traced iterations, so the tracing
// overhead is measured within the same run. Before each iteration it sets
// the workload up setupRepsPerIter more times, outside the iteration's
// timing. body returns the iteration's wall time.
func (b *bench) iterate(minIters int, body func(id int, tr *tracer) (float64, error)) (plain, traced []sample, err error) {
	start := time.Now()
	for id := 0; id < minIters || time.Since(start) < b.budget; id++ {
		for i := 0; i < setupRepsPerIter; i++ {
			if err := b.setupRep(false); err != nil {
				return plain, traced, err
			}
		}
		var tr *tracer
		if b.tr != nil && id%2 == 1 {
			tr = b.tr
		}
		runtime.GC() // every iteration starts from a collected heap, untimed
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c0 := cpuSeconds()
		wall, err := body(id, tr)
		fmt.Printf("iteration %d: wall %.4fs, process cpu %.4fs, traced %t\n", id, wall, cpuSeconds()-c0, tr != nil)
		if err != nil {
			return plain, traced, err
		}
		runtime.ReadMemStats(&after)
		s := sample{wall: wall, allocs: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)}
		if tr == nil {
			plain = append(plain, s)
		} else {
			traced = append(traced, s)
		}
	}
	return plain, traced, nil
}

// walls and allocs project samples.
func walls(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		out = append(out, s.wall)
	}
	return out
}

func allocs(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		out = append(out, s.allocs)
	}
	return out
}

// reportIterations sets the end-to-end metrics every workload shares
// (untraced run), or the tracing overhead (traced run).
func (b *bench) reportIterations(plain, traced []sample) {
	if b.tr == nil {
		b.set("setup_s", median(b.setups), len(b.setups))
		b.set("wall_s", median(walls(plain)), len(plain))
		b.set("alloc_mb", median(allocs(plain)), len(plain))
		return
	}
	u, t := median(walls(plain)), median(walls(traced))
	fmt.Printf("tracing: untraced iteration %.4fs (n=%d), traced %.4fs (n=%d)\n", u, len(plain), t, len(traced))
	b.set("tracing.overhead_s", t-u, len(traced))
	b.set("tracing.overhead_pct", 100*ratio(t-u, u), len(traced))
}

// cpuModel names the host CPU for the environment record.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSeconds is the process's user + system CPU time so far; printed per
// iteration beside the wall time, it shows when the host preempted the run.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
