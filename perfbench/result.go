package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// metric is one reported figure. N is the number of samples behind it; it
// is printed on the human-readable line, not in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// result accumulates one run's metrics and its correctness gate. Operations
// are the gate's unit of account (a grid cell, a simulation, a serve job);
// every failed check fails one operation.
type result struct {
	mu        sync.Mutex
	metrics   map[string]metric
	attempted int
	failed    int
	errs      []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

// attempt counts operations entering the gate.
func (r *result) attempt(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += n
}

// fail records one failed operation and why.
func (r *result) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < 50 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// report prints the human-readable lines, then the result object as the
// last line of w.
func (r *result) report(w io.Writer, env map[string]string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.errs {
		fmt.Fprintf(w, "FAIL %s\n", e)
	}
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env %s\n", envJSON)
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-28s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.n)
	}
	errRate := 1.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-28s %14.6g %-6s n=%d\n", "error_rate", errRate, "ratio", r.attempted)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

func (r *result) ok() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed == 0 && r.attempted > 0
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sumOf(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is num/den, 0 when den is 0 (a layer the workload never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
