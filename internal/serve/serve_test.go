package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"redsoc/internal/harness"
	"redsoc/internal/ooo"
)

// testSpec is the small grid every serve test uses: one workload class, one
// core, sweep on — 2 grid cells + 4 sweep totals, seconds of wall time.
// Workers is pinned so the report's workers field is reproducible across
// machines (worker count never changes results, only the echoed field).
func testSpec() JobSpec {
	return JobSpec{
		Benchmarks: []string{"bitcnt", "crc"},
		Cores:      []string{"small"},
		Sweep:      true,
		Workers:    2,
	}
}

func newTestService(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Journal: t.TempDir(), MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return srv, ts
}

// submit POSTs a spec and returns the accepted status.
func submit(t *testing.T, ts *httptest.Server, tenant string, spec JobSpec) Status {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// wait polls a job's status endpoint until it leaves the queue/run states.
func wait(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// report fetches a finished job's report bytes.
func report(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report %s: status %d, want 200", id, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// normalizeReport zeroes wall_seconds — the one intentionally nondeterministic
// field — and re-marshals, so byte comparison checks everything else exactly.
func normalizeReport(t *testing.T, data []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, data)
	}
	if _, ok := m["wall_seconds"]; !ok {
		t.Fatalf("report has no wall_seconds field:\n%s", data)
	}
	m["wall_seconds"] = 0
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServeRepeatSubmissionIsFullyCached is the service's core contract: the
// second identical submission — here from a different tenant — is served
// 100% from the content-addressed cache (zero simulations) with a report
// byte-identical to the first, and both match what the batch harness
// produces directly for the same spec.
func TestServeRepeatSubmissionIsFullyCached(t *testing.T) {
	_, ts := newTestService(t)
	spec := testSpec()

	st1 := submit(t, ts, "alice", spec)
	if st1.CellsTotal != 6 {
		t.Fatalf("planned cells = %d, want 6 (2 grid cells + 4 sweep totals)", st1.CellsTotal)
	}
	st1 = wait(t, ts, st1.ID)
	if st1.State != StateDone {
		t.Fatalf("first job %s: %s", st1.State, st1.Error)
	}
	if st1.CacheMisses != st1.CellsTotal || st1.CacheHits != 0 {
		t.Fatalf("first job on a fresh cache: hits=%d misses=%d, want 0/%d",
			st1.CacheHits, st1.CacheMisses, st1.CellsTotal)
	}
	if st1.CellsDone != st1.CellsTotal {
		t.Fatalf("cells done = %d, want %d", st1.CellsDone, st1.CellsTotal)
	}
	rep1 := report(t, ts, st1.ID)

	st2 := wait(t, ts, submit(t, ts, "bob", spec).ID)
	if st2.State != StateDone {
		t.Fatalf("second job %s: %s", st2.State, st2.Error)
	}
	if st2.CacheHits != st2.CellsTotal || st2.CacheMisses != 0 {
		t.Fatalf("repeat job: hits=%d misses=%d, want %d/0 — the cache must serve everything",
			st2.CacheHits, st2.CacheMisses, st2.CellsTotal)
	}
	rep2 := report(t, ts, st2.ID)
	if !bytes.Equal(normalizeReport(t, rep1), normalizeReport(t, rep2)) {
		t.Fatalf("repeat report differs from original (beyond wall_seconds):\n%s\n---\n%s", rep1, rep2)
	}

	// The serve report must be exactly the batch path's report.
	bs := make([]harness.Benchmark, 0, 2)
	for _, name := range spec.Benchmarks {
		b, err := harness.FindBenchmark(harness.Benchmarks(harness.Quick), name)
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	grid, err := harness.Run(context.Background(), bs, []ooo.Config{ooo.SmallConfig()},
		harness.Options{SweepThreshold: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	direct := grid.Report()
	direct.Scale = "quick"
	direct.Workers = 2
	directJSON, err := json.MarshalIndent(direct, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalizeReport(t, append(directJSON, '\n')), normalizeReport(t, rep1)) {
		t.Fatalf("serve report differs from the batch harness report:\n%s\n---\n%s", directJSON, rep1)
	}
}

// TestServeCacheHitWallClockIsOwn pins the cache-hit wall_seconds semantics:
// a fully cached repeat job's report must carry that job's own (lookup-time)
// wall clock, never echo the original run's — the report bytes are
// re-marshaled per job, wall_seconds stamped from the job's own start. The
// two measurements share no clock reading, so an echo would reproduce the
// original float bit-for-bit; distinct values prove independent stamping.
func TestServeCacheHitWallClockIsOwn(t *testing.T) {
	_, ts := newTestService(t)
	spec := testSpec()

	st1 := wait(t, ts, submit(t, ts, "alice", spec).ID)
	if st1.State != StateDone {
		t.Fatalf("first job %s: %s", st1.State, st1.Error)
	}
	st2 := wait(t, ts, submit(t, ts, "bob", spec).ID)
	if st2.CacheHits != st2.CellsTotal {
		t.Fatalf("repeat job hit %d/%d cells; the premise is a fully cached job",
			st2.CacheHits, st2.CellsTotal)
	}

	walls := make([]float64, 2)
	for i, id := range []string{st1.ID, st2.ID} {
		var rep struct {
			WallSeconds *float64 `json:"wall_seconds"`
		}
		if err := json.Unmarshal(report(t, ts, id), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.WallSeconds == nil {
			t.Fatalf("report %d has no wall_seconds field", i)
		}
		walls[i] = *rep.WallSeconds
	}
	if walls[0] <= 0 || walls[1] <= 0 {
		t.Fatalf("wall_seconds = %v, want both positive (each job stamps its own clock)", walls)
	}
	if walls[0] == walls[1] {
		t.Fatalf("cached report echoes the original run's wall clock (%v)", walls[0])
	}
	if st1.WallSeconds <= 0 || st2.WallSeconds <= 0 || st1.WallSeconds == st2.WallSeconds {
		t.Fatalf("status wall clocks %v / %v must be independent per-job measurements",
			st1.WallSeconds, st2.WallSeconds)
	}
}

// TestServeShardEquivalence runs the same spec sharded 3 ways on one service
// and unsharded on another (separate caches, so the sharded run really
// computes its cells) and demands byte-identical reports — the serve-level
// extension of the -j 1 ≡ -j N determinism gate.
func TestServeShardEquivalence(t *testing.T) {
	_, tsSharded := newTestService(t)
	_, tsPlain := newTestService(t)

	sharded := testSpec()
	sharded.Shards = 3
	stS := wait(t, tsSharded, submit(t, tsSharded, "", sharded).ID)
	if stS.State != StateDone {
		t.Fatalf("sharded job %s: %s", stS.State, stS.Error)
	}
	if stS.MergeMisses != 0 {
		t.Fatalf("merge pass simulated %d cells; shards must deliver the whole grid", stS.MergeMisses)
	}
	// Shards replicate the sweep but dedupe through the cache, so across the
	// shard passes every planned unit completes at least once and the counted
	// shard-pass hits+misses cover at least the plan.
	if stS.CacheMisses+stS.CacheHits < stS.CellsTotal {
		t.Fatalf("shard passes accounted %d+%d cells, want >= %d",
			stS.CacheHits, stS.CacheMisses, stS.CellsTotal)
	}

	stP := wait(t, tsPlain, submit(t, tsPlain, "", testSpec()).ID)
	if stP.State != StateDone {
		t.Fatalf("plain job %s: %s", stP.State, stP.Error)
	}

	repS := normalizeReport(t, report(t, tsSharded, stS.ID))
	repP := normalizeReport(t, report(t, tsPlain, stP.ID))
	if !bytes.Equal(repS, repP) {
		t.Fatalf("3-shard report differs from unsharded report:\n%s\n---\n%s", repS, repP)
	}
}

// TestServeChaosJob submits a small chaos job and repeats it, expecting the
// repeat to be fully cached like any other job.
func TestServeChaosJob(t *testing.T) {
	_, ts := newTestService(t)
	spec := JobSpec{Type: "chaos", Benchmarks: []string{"bitcnt"}, Seeds: 2, Rates: []float64{0.05}, Workers: 2}

	st := wait(t, ts, submit(t, ts, "", spec).ID)
	if st.State != StateDone {
		t.Fatalf("chaos job %s: %s", st.State, st.Error)
	}
	if st.CellsTotal != 2 || st.CellsDone != 2 {
		t.Fatalf("chaos cells done/total = %d/%d, want 2/2", st.CellsDone, st.CellsTotal)
	}
	var rep struct {
		ArchFailures int    `json:"arch_failures"`
		Table        string `json:"table"`
	}
	if err := json.Unmarshal(report(t, ts, st.ID), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ArchFailures != 0 {
		t.Fatalf("chaos reported %d architectural failures", rep.ArchFailures)
	}
	if rep.Table == "" {
		t.Fatal("chaos report table is empty")
	}

	st2 := wait(t, ts, submit(t, ts, "", spec).ID)
	if st2.CacheHits != 2 || st2.CacheMisses != 0 {
		t.Fatalf("repeat chaos job: hits=%d misses=%d, want 2/0", st2.CacheHits, st2.CacheMisses)
	}
}

// TestServeEventsStream checks the NDJSON stream: contiguous sequence
// numbers, one cell event per unit of work, terminal done event; and the SSE
// framing variant.
func TestServeEventsStream(t *testing.T) {
	_, ts := newTestService(t)
	st := wait(t, ts, submit(t, ts, "", testSpec()).ID)
	if st.State != StateDone {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cells := 0
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d — stream must be gapless from 0", i, ev.Seq)
		}
		if ev.Type == "cell" {
			cells++
			if ev.Key == "" || ev.Kind == "" {
				t.Fatalf("cell event without key/kind: %+v", ev)
			}
		}
	}
	if cells != st.CellsTotal {
		t.Fatalf("stream carried %d cell events, want %d", cells, st.CellsTotal)
	}
	if last := events[len(events)-1]; last.Type != "done" {
		t.Fatalf("last event is %q, want done", last.Type)
	}

	// Resume from an offset skips exactly the consumed prefix.
	resp2, err := ts.Client().Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts.URL, st.ID, len(events)-1))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var tail bytes.Buffer
	tail.ReadFrom(resp2.Body)
	if n := strings.Count(tail.String(), "\n"); n != 1 {
		t.Fatalf("resumed stream has %d events, want 1", n)
	}

	resp3, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/events?sse=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if ct := resp3.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("sse content type %q", ct)
	}
	var sse bytes.Buffer
	sse.ReadFrom(resp3.Body)
	if !strings.HasPrefix(sse.String(), "data: ") {
		t.Fatalf("sse stream not data-framed: %q", sse.String()[:min(len(sse.String()), 40)])
	}
}

// TestServeLiveEventsFollow attaches to the stream before the job finishes
// and must still observe the full gapless history plus the done event.
func TestServeLiveEventsFollow(t *testing.T) {
	_, ts := newTestService(t)
	st := submit(t, ts, "", testSpec())
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	last := ""
	n := 0
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Seq != n {
			t.Fatalf("live stream gap: event %d has seq %d", n, ev.Seq)
		}
		n++
		last = ev.Type
	}
	if last != "done" {
		t.Fatalf("live stream ended on %q, want done", last)
	}
	if fin := wait(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("job %s: %s", fin.State, fin.Error)
	}
}

// TestServeSubmitRejects pins the submit-time validation surface: bad specs
// are a 400 at the door, never a failed job discovered later. That includes
// a spec planning more than maxJobCells cells — a huge seed count, one that
// would overflow the product, or a long repeated benchmark list.
func TestServeSubmitRejects(t *testing.T) {
	_, ts := newTestService(t)
	cases := []string{
		`{"type":"warp"}`,
		`{"scale":"epic"}`,
		`{"benchmarks":["nosuch"]}`,
		`{"cores":["huge"]}`,
		`{"shards":100}`,
		`{"workers":-1}`,
		`{"type":"chaos","shards":2}`,
		`{"type":"chaos","rates":[1.5]}`,
		`{"type":"chaos","seeds":1000000000}`,
		`{"type":"chaos","seeds":9223372036854775807,"rates":[0.1,0.2,0.3]}`,
		`{"benchmarks":["bitcnt"` + strings.Repeat(`,"bitcnt"`, maxJobCells/3) + `]}`,
		`{"bogus":1}`,
		`not json`,
	}
	for _, body := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %.80s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestServeJobCellCap: the cell cap is exact — three chaos benchmarks ×
// two rates × seeds — and the planned count saturates rather than
// overflowing however large the spec's counts are.
func TestServeJobCellCap(t *testing.T) {
	srv, _ := newTestService(t)
	if _, err := srv.resolve(JobSpec{Type: "chaos", Seeds: maxJobCells / 6}); err != nil {
		t.Fatalf("a job at the cap was refused: %v", err)
	}
	if _, err := srv.resolve(JobSpec{Type: "chaos", Seeds: maxJobCells/6 + 1}); err == nil {
		t.Fatal("a job one seed over the cap was accepted")
	}
	if n := cellProduct(math.MaxInt, math.MaxInt, 3); n != maxJobCells+1 {
		t.Fatalf("cellProduct saturates at %d, want %d", n, maxJobCells+1)
	}
}

// TestServeSubmitAfterClose: once Close has begun, Submit refuses with
// ErrClosed (503 over HTTP) and registers nothing, instead of reporting a
// job queued that no runner will ever claim. Submits racing Close either
// fail that way or register a job that Close then fails or runs — none is
// left queued.
func TestServeSubmitAfterClose(t *testing.T) {
	srv, err := New(Config{Journal: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Submit("racer", testSpec()); err != nil && !errors.Is(err, ErrClosed) {
				t.Error(err)
			}
		}()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	registered := len(srv.order)
	for _, id := range srv.order {
		if st := srv.jobs[id].status(); st.State == StateQueued {
			t.Errorf("job %s submitted around Close is still queued", id)
		}
	}

	if _, err := srv.Submit("alice", testSpec()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
	body, _ := json.Marshal(testSpec())
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP submit after Close: status %d, want 503", resp.StatusCode)
	}
	if n := len(srv.order); n != registered {
		t.Fatalf("%d jobs were registered after Close", n-registered)
	}
}

// TestServeQueueDepthBound: a tenant with maxQueuedPerTenant jobs waiting
// gets ErrQueueFull (429 over HTTP) for the next one, which registers
// nothing; other tenants are unaffected, and every accepted job — including
// one submitted after the rejection — still runs. The server starts with
// its runners stopped, so the queue fills deterministically.
func TestServeQueueDepthBound(t *testing.T) {
	srv, err := newServer(Config{Journal: t.TempDir(), MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	var first Status
	for i := 0; i < maxQueuedPerTenant; i++ {
		st, err := srv.Submit("flood", testSpec())
		if err != nil {
			t.Fatalf("queued job %d refused: %v", i, err)
		}
		if i == 0 {
			first = st
		}
	}
	registered := len(srv.order)
	if _, err := srv.Submit("flood", testSpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit over the bound: err = %v, want ErrQueueFull", err)
	}
	body, _ := json.Marshal(testSpec())
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", "flood")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP submit over the bound: status %d, want 429", resp.StatusCode)
	}
	if n := len(srv.order); n != registered {
		t.Fatalf("%d rejected jobs were registered", n-registered)
	}

	calm := submit(t, ts, "calm", testSpec())
	srv.start()
	for _, id := range []string{first.ID, calm.ID} {
		if st := wait(t, ts, id); st.State != StateDone {
			t.Fatalf("job %s ended %s (%s), want done", id, st.State, st.Error)
		}
	}
	// The flood tenant's first job has left the queue, so it has room again.
	if _, err := srv.Submit("flood", testSpec()); err != nil {
		t.Fatalf("Submit after the queue drained by one: %v", err)
	}
}

// TestServeEndpointStates covers the non-happy endpoint paths: unknown job
// IDs and report requests before completion.
func TestServeEndpointStates(t *testing.T) {
	srv, ts := newTestService(t)

	for _, path := range []string{"/v1/jobs/j999999", "/v1/jobs/j999999/report", "/v1/jobs/j999999/events"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// A queued/running job's report is a 409. Submit directly so we can catch
	// the job before it finishes without racing the HTTP round trip.
	st, err := srv.Submit("", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fin := wait(t, ts, st.ID); fin.State == StateDone {
		// Only assert the 409 if the report request genuinely preceded
		// completion; on a loaded machine the job may have already finished.
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
			t.Errorf("report before completion: status %d, want 409 (or 200 if already done)", resp.StatusCode)
		}
	}

	healthz, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	healthz.Body.Close()
	if healthz.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", healthz.StatusCode)
	}
}

// TestServeStatsAndList checks /v1/stats aggregates and the job list after a
// mixed workload.
func TestServeStatsAndList(t *testing.T) {
	_, ts := newTestService(t)
	spec := testSpec()
	// Serialize the two submissions so the second finds the first's cells in
	// the cache (concurrent identical jobs could both miss every cell).
	id1 := submit(t, ts, "alice", spec).ID
	wait(t, ts, id1)
	id2 := submit(t, ts, "bob", spec).ID
	wait(t, ts, id2)

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != id1 || list[1].ID != id2 {
		t.Fatalf("job list = %+v, want [%s %s] in submission order", list, id1, id2)
	}
	if list[0].Tenant != "alice" || list[1].Tenant != "bob" {
		t.Fatalf("tenants = %s/%s, want alice/bob", list[0].Tenant, list[1].Tenant)
	}

	var stats StatsResponse
	resp2, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp2.Body).Decode(&stats)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxConcurrent != 2 {
		t.Fatalf("max_concurrent = %d, want 2", stats.MaxConcurrent)
	}
	if len(stats.Jobs) != 1 || stats.Jobs[0].State != StateDone || stats.Jobs[0].Count != 2 {
		t.Fatalf("job state counts = %+v, want [{done 2}]", stats.Jobs)
	}
	// One of the two identical jobs simulated, the other was cached; the
	// service-wide cache counters must reflect both.
	if stats.Cache.Writes == 0 || stats.Cache.Hits == 0 {
		t.Fatalf("cache stats = %+v, want nonzero writes and hits", stats.Cache)
	}
}

// TestServeSubmitRejectsOversizedBody: a job spec beyond maxSpecBytes is a
// 413 at the door, read no further than the cap.
func TestServeSubmitRejectsOversizedBody(t *testing.T) {
	_, ts := newTestService(t)
	body := strings.Repeat(" ", maxSpecBytes) + `{"scale":"quick"}`
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: status %d, want 413", resp.StatusCode)
	}
}

// TestServeJobsShareTheSuite: jobs of one scale resolve against the
// server's single suite, so their programs are the same pointers (the
// per-program decode and digest caches hit across jobs), and concurrent
// cache-hit jobs reading that shared suite and the journal stay race-free
// and byte-identical.
func TestServeJobsShareTheSuite(t *testing.T) {
	srv, ts := newTestService(t)
	spec := testSpec()
	first := wait(t, ts, submit(t, ts, "alice", spec).ID)
	if first.State != StateDone {
		t.Fatalf("first job %s: %s", first.State, first.Error)
	}
	want := normalizeReport(t, report(t, ts, first.ID))

	ids := make(chan string, 2)
	for _, tenant := range []string{"bob", "carol"} {
		go func(tenant string) { ids <- submitRaw(ts, tenant, spec) }(tenant)
	}
	for i := 0; i < 2; i++ {
		id := <-ids
		if id == "" {
			t.Fatal("concurrent submit failed")
		}
		st := wait(t, ts, id)
		if st.State != StateDone || st.CacheHits != st.CellsTotal || st.CacheMisses != 0 {
			t.Fatalf("hit job %s: state %s, hits %d/%d, misses %d", id, st.State, st.CacheHits, st.CellsTotal, st.CacheMisses)
		}
		if got := normalizeReport(t, report(t, ts, id)); !bytes.Equal(got, want) {
			t.Fatalf("hit job %s report differs from the first job's", id)
		}
		a, b := srv.jobByID(first.ID).res.benchmarks, srv.jobByID(id).res.benchmarks
		for k := range a {
			if a[k].Prog != b[k].Prog {
				t.Fatalf("job %s rebuilt %s instead of sharing the server's suite", id, a[k].Name)
			}
		}
	}
}

// submitRaw POSTs a spec from any goroutine and returns the job ID, or ""
// on any failure (t.Fatal must stay on the test goroutine).
func submitRaw(ts *httptest.Server, tenant string, spec JobSpec) string {
	body, err := json.Marshal(spec)
	if err != nil {
		return ""
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return ""
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := ts.Client().Do(req)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode != http.StatusAccepted || json.NewDecoder(resp.Body).Decode(&st) != nil {
		return ""
	}
	return st.ID
}
