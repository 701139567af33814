package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"time"

	"redsoc/internal/cellstore"
	"redsoc/internal/harness"
	"redsoc/internal/serve"
)

// serveRounds and hitsPerClient size a run: each round has one miss job
// and each tenant submits hitsPerClient hit jobs, so eight rounds give the
// ≥100 hits a p90 needs ten samples beyond, and eight miss jobs for the
// job_miss_s median.
const (
	serveRounds   = 8
	hitsPerClient = 7
)

// quickBaseline is the committed quick-grid cycle baseline the miss job's
// report must match (read, never written).
const quickBaseline = ".github/bench-baseline.json"

// server is one in-process redsoc-serve on a loopback listener.
type server struct {
	svc  *serve.Server
	http *http.Server
	url  string
	done chan error
}

func startServer(journal string) (*server, error) {
	svc, err := serve.New(serve.Config{Journal: journal, MaxConcurrent: 2, Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{svc: svc, http: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	resp, err := http.Get(s.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the listener and the service down and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// client is one closed-loop tenant holding a single connection.
type client struct {
	tenant string
	http   *http.Client
}

func newClient(tenant string) *client {
	return &client{tenant: tenant, http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// jobRun is what a client saw of one job.
type jobRun struct {
	latency float64 // submit → report received, seconds
	report  []byte
	cells   int
	hits    int
	state   string
}

// job submits spec and follows the job through its event stream to its
// report. Traced, it records the submit, the queue wait, the first cell
// event and the report fetch; for the miss job (hit == false) it also
// brackets the campaign from "running" to "done" with a span carrying one
// campaign.unit mark per cell event.
func (c *client) job(tr *tracer, id int, base string, spec []byte, hit bool) (jobRun, error) {
	var out jobRun
	isHit := 0.0
	if hit {
		isHit = 1
	}
	attrs := map[string]float64{"hit": isHit}
	start := time.Now()
	root := tr.begin(id, -1, "serve.job")
	first := tr.begin(id, root, "serve.first_cell")
	sp := tr.begin(id, root, "serve.submit")
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(spec))
	if err != nil {
		return out, err
	}
	req.Header.Set("X-Tenant", c.tenant)
	var st serve.Status
	if err := c.do(req, http.StatusAccepted, &st); err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	tr.end(sp, attrs)

	queued := tr.begin(id, root, "serve.queue_wait")
	firstSeen := false
	campaign := -1
	resp, err := c.http.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		return out, fmt.Errorf("events: %w", err)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			return out, fmt.Errorf("events: %w", err)
		}
		switch ev.Type {
		case "state":
			if ev.Text == serve.StateRunning {
				tr.end(queued, attrs)
				if !hit {
					campaign = tr.begin(id, root, "serve.campaign")
				}
			}
		case "cell":
			out.cells++
			if ev.Hit {
				out.hits++
			}
			if !firstSeen {
				firstSeen = true
				tr.end(first, attrs)
			}
			if !hit {
				sweep := 0.0
				if ev.Kind == "sweep-total" {
					sweep = 1
				}
				tr.mark(id, campaign, "campaign.unit", map[string]float64{"sweep": sweep})
			}
		case "done":
			out.state = serve.StateDone
			tr.end(campaign, nil)
		case "error":
			out.state = serve.StateFailed + ": " + ev.Text
		}
	}
	err = sc.Err()
	resp.Body.Close()
	if err != nil {
		return out, fmt.Errorf("events: %w", err)
	}
	if out.state != serve.StateDone {
		return out, fmt.Errorf("job %s ended %q", st.ID, out.state)
	}

	sp = tr.begin(id, root, "serve.report_fetch")
	resp, err = c.http.Get(base + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		return out, fmt.Errorf("report: %w", err)
	}
	out.report, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return out, fmt.Errorf("report: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("report: %s", resp.Status)
	}
	tr.end(sp, attrs)
	tr.end(root, attrs)
	out.latency = elapsed(start)
	return out, nil
}

// do sends req and decodes a JSON reply with the wanted status.
func (c *client) do(req *http.Request, want int, v any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}

var wallSeconds = regexp.MustCompile(`"wall_seconds": [^,\n]*`)

// sameReport compares two report bodies except their wall_seconds.
func sameReport(a, b []byte) bool {
	norm := func(r []byte) []byte { return wallSeconds.ReplaceAll(r, []byte(`"wall_seconds": 0`)) }
	return bytes.Equal(norm(a), norm(b))
}

// serveSpec is every job's spec: the quick grid with the sweep on, on all
// three cores. The service's inputs are fixed, so the seed selects nothing
// here.
var serveSpec, _ = json.Marshal(serve.JobSpec{Scale: "quick", Sweep: true, Workers: workers})

// runServe drives one in-process redsoc-serve per round on a fresh journal:
// a cache-miss job that computes and journals every unit, then tenants a
// and b resubmitting the same spec as closed-loop cache-hit jobs.
func runServe(b *bench) error {
	var bs []harness.Benchmark
	if err := b.setup(func(tr *tracer, keep bool) (func(), error) {
		if got := buildSuite(tr, harness.Quick); keep {
			bs = got
		}
		dir := filepath.Join(b.workDir, "serve-setup")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		s, err := startServer(dir)
		if err != nil {
			return nil, err
		}
		return func() { s.stop(); os.RemoveAll(dir) }, nil
	}); err != nil {
		return err
	}
	want, err := readQuickBaseline()
	if err != nil {
		return err
	}

	var missLat, hitLat, throughput []float64
	var chosen map[harness.Class]map[string]int
	plain, traced, err := b.iterate(serveRounds, func(id int, tr *tracer) (float64, error) {
		dir := filepath.Join(b.workDir, fmt.Sprintf("serve-round-%d", id))
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		s, err := startServer(dir)
		if err != nil {
			return 0, err
		}
		rt, missReport, err := b.serveRound(tr, id, s, want)
		if err == nil {
			err = b.roundStats(tr, id, s)
		}
		if serr := s.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return 0, err
		}
		if tr == nil {
			throughput = append(throughput, rt.instrs/rt.miss/1e6)
			missLat = append(missLat, rt.miss)
			hitLat = append(hitLat, rt.hits...)
			return rt.round, nil
		}
		g, err := probeJournal(tr, id, dir, bs)
		if err != nil {
			return 0, err
		}
		b.res.attempt(1)
		if rep := renderReport(tr, id, -1, g, "quick"); !sameCells(rep, missReport) {
			b.res.fail("serve round %d: in-process journal replay differs from the served report", id)
		}
		chosen = g.ChosenThreshold
		return rt.round, nil
	})
	if err != nil {
		return err
	}
	b.reportIterations(plain, traced)
	if b.tr == nil {
		b.set("job_miss_s", median(missLat), len(missLat))
		b.set("job_hit_p50_ms", median(hitLat), len(hitLat))
		b.set("job_hit_p90_ms", quantile(hitLat, 0.9), len(hitLat))
		b.set("sim_minstr_per_s", median(throughput), len(throughput))
		return nil
	}
	replayed, _, err := replayGrid(b.tr, b.res, bs, harness.Cores(), chosen, true)
	if err != nil {
		return err
	}
	compareCells(b.res, "serve replay", want, replayed)
	b.layerMetrics("serve.campaign")
	return nil
}

// roundTimes is what one round measured.
type roundTimes struct {
	round, miss float64 // seconds
	hits        []float64
	instrs      float64 // simulated by the miss job
}

// serveRound runs the miss job, then both tenants' hit jobs, and gates
// every job: each ends done, the miss job's cycles match the committed
// quick baseline, every hit job is served entirely from the cache, and its
// report equals the miss job's except wall_seconds.
func (b *bench) serveRound(tr *tracer, id int, s *server, want *harness.Baseline) (roundTimes, *harness.Report, error) {
	var rt roundTimes
	start := time.Now()
	miss := newClient("a")
	defer miss.close()
	b.res.attempt(1)
	m, err := miss.job(tr, id, s.url, serveSpec, false)
	if err != nil {
		return rt, nil, fmt.Errorf("miss job: %w", err)
	}
	if m.hits != 0 || m.cells == 0 {
		b.res.fail("serve round %d: miss job served %d of %d units from the cache, want none", id, m.hits, m.cells)
	}
	var rep harness.Report
	if err := json.Unmarshal(m.report, &rep); err != nil {
		return rt, nil, fmt.Errorf("miss report: %w", err)
	}
	compareCells(b.res, fmt.Sprintf("serve round %d miss report", id), want, harness.BaselineOf(&rep))
	rt.miss, rt.instrs = m.latency, gridInstrs(&rep, true)

	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for _, tenant := range []string{"a", "b"} {
		c := newClient(tenant)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			for i := 0; i < hitsPerClient; i++ {
				b.res.attempt(1)
				h, err := c.job(tr, id, s.url, serveSpec, true)
				mu.Lock()
				switch {
				case err != nil:
					b.res.fail("serve round %d tenant %s hit job: %v", id, c.tenant, err)
					if firstErr == nil {
						firstErr = err
					}
				case h.hits != m.cells || h.cells != m.cells:
					b.res.fail("serve round %d tenant %s: hit job served %d of %d units from the cache, want %d", id, c.tenant, h.hits, h.cells, m.cells)
				case !sameReport(h.report, m.report):
					b.res.fail("serve round %d tenant %s: hit report differs from the miss report", id, c.tenant)
				default:
					rt.hits = append(rt.hits, h.latency*1e3)
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	rt.round = elapsed(start)
	return rt, &rep, firstErr
}

// roundStats gates the service-wide cache counters of the round's fresh
// journal — every unit missed once and hit once per hit job, none corrupt —
// and records them for the per-layer cellstore counts.
func (b *bench) roundStats(tr *tracer, id int, s *server) error {
	c := newClient("stats")
	defer c.close()
	req, err := http.NewRequest(http.MethodGet, s.url+"/v1/stats", nil)
	if err != nil {
		return err
	}
	var st serve.StatsResponse
	if err := c.do(req, http.StatusOK, &st); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	b.res.attempt(1)
	jobs := int64(1 + 2*hitsPerClient)
	if st.Cache.Corrupt != 0 || st.Cache.Misses == 0 || st.Cache.Hits != (jobs-1)*st.Cache.Misses {
		b.res.fail("serve round %d: cache counters %+v, want every unit missed once and hit by each of %d hit jobs", id, st.Cache, jobs-1)
	}
	tr.mark(id, -1, "serve.round.stats", map[string]float64{
		"hits": float64(st.Cache.Hits), "misses": float64(st.Cache.Misses), "corrupt": float64(st.Cache.Corrupt),
	})
	return nil
}

// probeJournal times the cellstore directly on the round's journal: Get of
// every journaled key, then Put of the same payloads into a scratch store.
// It then reruns the job in process against the journal — every unit a
// hit — and returns that grid for the report timing and the replay.
func probeJournal(tr *tracer, id int, dir string, bs []harness.Benchmark) (*harness.Grid, error) {
	sp := tr.begin(id, -1, "cellstore.Open")
	st, err := cellstore.Open(dir)
	tr.end(sp, nil)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	recs, err := cellstore.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	scratchDir := dir + "-put"
	if err := os.RemoveAll(scratchDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratchDir)
	scratch, err := cellstore.Open(scratchDir)
	if err != nil {
		return nil, err
	}
	defer scratch.Close()
	for _, r := range recs {
		if r.Op != "done" {
			continue
		}
		sp := tr.begin(id, -1, "cellstore.Get")
		data, ok := st.Get(r.Key)
		tr.end(sp, map[string]float64{"bytes": float64(len(data))})
		if !ok {
			return nil, fmt.Errorf("cellstore: journaled key %s missing", r.Key)
		}
		sp = tr.begin(id, -1, "cellstore.Put")
		err := scratch.Put(r.Key, data)
		tr.end(sp, map[string]float64{"bytes": float64(len(data))})
		if err != nil {
			return nil, err
		}
	}
	sp = tr.begin(id, -1, "cellstore.Stats")
	stats := st.Stats()
	tr.end(sp, map[string]float64{"hits": float64(stats.Hits), "misses": float64(stats.Misses)})

	sp = tr.begin(id, -1, "harness.Run")
	g, err := harness.Run(context.Background(), bs, harness.Cores(), harness.Options{
		SweepThreshold: true, Workers: workers, Journal: st, Resume: true,
	})
	tr.end(sp, nil)
	return g, err
}

// sameCells reports whether two reports carry identical cells.
func sameCells(a, b *harness.Report) bool {
	x, _ := json.Marshal(a.Cells)
	y, _ := json.Marshal(b.Cells)
	return bytes.Equal(x, y)
}

func readQuickBaseline() (*harness.Baseline, error) {
	f, err := os.Open(quickBaseline)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return harness.ReadBaseline(f)
}
