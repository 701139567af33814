package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"redsoc/internal/cellstore"
	"redsoc/internal/harness"
)

// Config configures a Server.
type Config struct {
	// Journal is the content-addressed result cache directory (required).
	// Every job reads and writes it: a cell any tenant ever computed is
	// served from here, verified, for free.
	Journal string
	// MaxConcurrent bounds the campaigns running at once (default 2). Queued
	// jobs wait their fair, per-tenant turn.
	MaxConcurrent int
	// Workers caps the per-campaign worker pool a job may request; 0 means
	// no cap. Worker counts never change results, only wall time.
	Workers int
}

// Server is the campaign service: a job store, the fair queue, the shared
// result cache, and the runner goroutines that execute campaigns.
type Server struct {
	cfg    Config
	store  *cellstore.Store
	q      *queue
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	running atomic.Int64

	// suites holds one benchmark suite per scale, built on first use and
	// shared by every job after it: jobs only read their benchmarks, and a
	// shared suite keeps each program's pointer stable across jobs, so the
	// per-program decode and digest caches hit instead of rebuilding.
	suiteMu sync.Mutex
	suites  map[harness.Scale][]harness.Benchmark

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // job IDs in submission order
	nseq  int
}

// job is the server-side record of one submitted job.
type job struct {
	id     string
	tenant string
	res    *resolved
	log    *eventLog

	mu          sync.Mutex
	state       string
	errMsg      string
	cellsDone   int
	hits        int
	misses      int
	wallSeconds float64
	report      []byte
}

// New opens the cache and starts the runner pool.
func New(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// newServer opens the cache and builds a Server whose queue accepts jobs
// but which runs none until start.
func newServer(cfg Config) (*Server, error) {
	if cfg.Journal == "" {
		return nil, fmt.Errorf("serve: Config.Journal is required — the cache is the service")
	}
	store, err := cellstore.Open(cfg.Journal)
	if err != nil {
		return nil, err
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		store:  store,
		q:      newQueue(),
		ctx:    ctx,
		cancel: cancel,
		jobs:   map[string]*job{},
		suites: map[harness.Scale][]harness.Benchmark{},
	}
	return s, nil
}

// start launches the runner pool.
func (s *Server) start() {
	s.wg.Add(s.cfg.MaxConcurrent)
	for i := 0; i < s.cfg.MaxConcurrent; i++ {
		go s.runner()
	}
}

// Close drains the service: queued jobs are failed, running campaigns are
// cancelled, runners are joined, and the cache is flushed shut.
func (s *Server) Close() error {
	s.q.close()
	for _, j := range s.q.drain() {
		j.fail("server shut down before the job ran", 0)
		j.log.close()
	}
	s.cancel()
	s.wg.Wait()
	return s.store.Close()
}

// runner executes queued jobs until the queue closes.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		s.running.Add(1)
		s.execute(j)
		s.running.Add(-1)
	}
}

// Submit validates, registers and enqueues a job.
func (s *Server) Submit(tenant string, spec JobSpec) (Status, error) {
	if tenant == "" {
		tenant = "anonymous"
	}
	res, err := s.resolve(spec)
	if err != nil {
		return Status{}, err
	}
	j := &job{tenant: tenant, res: res, log: newEventLog(), state: StateQueued}
	j.log.append(Event{Type: "state", Text: StateQueued})
	// The job is registered only once the queue has accepted it, under the
	// same lock, so a job the queue refused is never listed as queued.
	s.mu.Lock()
	defer s.mu.Unlock()
	j.id = fmt.Sprintf("j%06d", s.nseq+1)
	if err := s.q.push(j); err != nil {
		return Status{}, err
	}
	s.nseq++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return j.status(), nil
}

// ErrClosed is Submit's error once Close has begun: the server accepts no
// more jobs.
var ErrClosed = errors.New("serve: server is shut down")

// ErrQueueFull is Submit's error when the tenant already has
// maxQueuedPerTenant jobs waiting (429 over HTTP).
var ErrQueueFull = fmt.Errorf("serve: tenant already has %d jobs queued", maxQueuedPerTenant)

// suite returns the server's shared benchmark suite for scale, building it
// on first use.
func (s *Server) suite(scale harness.Scale) []harness.Benchmark {
	s.suiteMu.Lock()
	defer s.suiteMu.Unlock()
	bs, ok := s.suites[scale]
	if !ok {
		bs = harness.Benchmarks(scale)
		s.suites[scale] = bs
	}
	return bs
}

// jobByID returns a registered job or nil.
func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// status snapshots a job for the API.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:          j.id,
		Tenant:      j.tenant,
		State:       j.state,
		Spec:        j.res.spec,
		Error:       j.errMsg,
		CellsTotal:  j.res.cells,
		CellsDone:   j.cellsDone,
		CacheHits:   j.hits,
		CacheMisses: j.misses,
		WallSeconds: j.wallSeconds,
	}
}

func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
	j.log.append(Event{Type: "state", Text: state})
}

func (j *job) fail(msg string, wallSeconds float64) {
	j.mu.Lock()
	j.state = StateFailed
	j.errMsg = msg
	j.wallSeconds = wallSeconds
	j.mu.Unlock()
	j.log.append(Event{Type: "error", Text: msg})
}

func (j *job) finish(report []byte, wallSeconds float64) {
	j.mu.Lock()
	j.state = StateDone
	j.report = report
	j.wallSeconds = wallSeconds
	j.mu.Unlock()
	j.log.append(Event{Type: "done", Text: "report ready"})
}

// Handler returns the HTTP API.
//
//	POST /v1/jobs              submit a JobSpec (tenant from X-Tenant)
//	GET  /v1/jobs              list job statuses in submission order
//	GET  /v1/jobs/{id}         one job's status
//	GET  /v1/jobs/{id}/report  the finished job's report (byte-identical to
//	                           the batch CLI's, modulo wall_seconds)
//	GET  /v1/jobs/{id}/events  progress stream (NDJSON; SSE with ?sse=1 or
//	                           Accept: text/event-stream; resume with ?from=N)
//	GET  /v1/stats             queue depth, running count, cache counters
//	GET  /healthz              liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// maxSpecBytes caps a submitted job spec. Real specs are a few hundred
// bytes; the cap keeps a runaway or hostile body from being buffered.
const maxSpecBytes = 1 << 20

// decodeSpec reads a submitted job spec, refusing fields JobSpec does not
// have, so a misspelt option is a 400 rather than silently ignored.
func decodeSpec(body io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("job spec exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	st, err := s.Submit(r.Header.Get("X-Tenant"), spec)
	if errors.Is(err, ErrClosed) {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if errors.Is(err, ErrQueueFull) {
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	j.mu.Lock()
	state, report := j.state, j.report
	j.mu.Unlock()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(report)
	case StateFailed:
		writeError(w, http.StatusConflict, "job failed; see its status")
	default:
		writeError(w, http.StatusConflict, "job not finished; poll its status or follow its events")
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	sse := r.URL.Query().Get("sse") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad from offset")
			return
		}
		from = n
	}
	flusher, _ := w.(http.Flusher)
	// A disconnecting client wakes the blocked follow so the handler (and
	// its goroutine) end promptly instead of at the job's next event.
	stop := context.AfterFunc(r.Context(), j.log.wake)
	defer stop()
	cancelled := func() bool { return r.Context().Err() != nil }
	for {
		evs, ok := j.log.follow(from, cancelled)
		if !ok {
			return
		}
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if sse {
				fmt.Fprintf(w, "data: %s\n\n", data)
			} else {
				w.Write(data)
				w.Write([]byte("\n"))
			}
		}
		from += len(evs)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// StatsResponse is the /v1/stats payload.
type StatsResponse struct {
	// Queue lists pending jobs per tenant, tenants sorted by name.
	Queue []TenantDepth `json:"queue"`
	// Running is the number of campaigns executing right now; MaxConcurrent
	// is its configured bound.
	Running       int `json:"running"`
	MaxConcurrent int `json:"max_concurrent"`
	// Jobs counts registered jobs by state, keys sorted.
	Jobs []StateCount `json:"jobs"`
	// Cache is the shared content-addressed store's counters, service-wide.
	Cache cellstore.Stats `json:"cache"`
}

// TenantDepth is one tenant's pending-job count.
type TenantDepth struct {
	Tenant  string `json:"tenant"`
	Pending int    `json:"pending"`
}

// StateCount is one job-state bucket.
type StateCount struct {
	State string `json:"state"`
	Count int    `json:"count"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	depth := s.q.depth()
	resp := StatsResponse{
		Running:       int(s.running.Load()),
		MaxConcurrent: s.cfg.MaxConcurrent,
		Cache:         s.store.Stats(),
		Queue:         []TenantDepth{},
		Jobs:          []StateCount{},
	}
	for _, tenant := range sortedTenants(depth) {
		resp.Queue = append(resp.Queue, TenantDepth{Tenant: tenant, Pending: depth[tenant]})
	}
	s.mu.Lock()
	byState := map[string]int{}
	for _, id := range s.order {
		st := s.jobs[id]
		st.mu.Lock()
		byState[st.state]++
		st.mu.Unlock()
	}
	s.mu.Unlock()
	for _, state := range sortedTenants(byState) {
		resp.Jobs = append(resp.Jobs, StateCount{State: state, Count: byState[state]})
	}
	writeJSON(w, http.StatusOK, resp)
}
