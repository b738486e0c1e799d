package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wmsn/internal/metrics"
	"wmsn/internal/obs"
	"wmsn/internal/protocol"
	"wmsn/internal/scenario"
)

// Config tunes the service. The zero value selects every default.
type Config struct {
	// QueueDepth bounds how many accepted jobs may wait for a scheduler;
	// submissions past it are shed with 429 + Retry-After (default 64).
	QueueDepth int
	// Schedulers is how many jobs execute concurrently (default 2). Total
	// simulation parallelism is Schedulers × Limits.MaxWorkersPerJob.
	Schedulers int
	// Limits bounds what one job may ask for.
	Limits Limits
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// RetainJobs is how many finished jobs stay queryable before the oldest
	// are evicted (default 1024).
	RetainJobs int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Schedulers <= 0 {
		c.Schedulers = 2
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 1024
	}
	c.Limits = c.Limits.withDefaults()
	return c
}

// Stats is the counter snapshot served by GET /stats. The lifecycle
// counters reconcile by construction:
//
//	submitted == queued + active + completed + canceled + failed
type Stats struct {
	Submitted         uint64 `json:"submitted"`
	RejectedInvalid   uint64 `json:"rejected_invalid"`
	Shed              uint64 `json:"shed"`
	Queued            int64  `json:"queued"`
	Active            int64  `json:"active"`
	Completed         uint64 `json:"completed"`
	Canceled          uint64 `json:"canceled"`
	Failed            uint64 `json:"failed"`
	RunsDelivered     uint64 `json:"runs_delivered"`
	RunsFailed        uint64 `json:"runs_failed"`
	StreamsServed     uint64 `json:"streams_served"`
	ClientDisconnects uint64 `json:"client_disconnects"`
	QueueDepth        int    `json:"queue_depth"`
}

type counters struct {
	submitted         atomic.Uint64
	rejectedInvalid   atomic.Uint64
	shed              atomic.Uint64
	queued            atomic.Int64
	active            atomic.Int64
	completed         atomic.Uint64
	canceled          atomic.Uint64
	failed            atomic.Uint64
	runsDelivered     atomic.Uint64
	runsFailed        atomic.Uint64
	streamsServed     atomic.Uint64
	clientDisconnects atomic.Uint64
}

var errClientDisconnect = errors.New("service: streaming client disconnected")

// Service is the embeddable simulation server: an http.Handler plus the
// scheduler pool behind it. Create with New, serve it from any http.Server,
// and Close it to cancel every job and join the schedulers.
type Service struct {
	cfg    Config
	mux    *http.ServeMux
	queue  chan *Job
	base   context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup
	closed atomic.Bool
	stats  counters

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []*Job // insertion order, for retention eviction
	nextID uint64

	// promMu guards the per-protocol lifetime aggregates behind GET /metrics.
	// Every delivered run's Memory folds into its protocol's aggregate, so a
	// scrape sees daemon-lifetime counter totals and merged histograms.
	promMu    sync.Mutex
	promProto map[string]*metrics.Aggregate
}

// New starts a service: schedulers are running and the handler is ready.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	base, cancel := context.WithCancelCause(context.Background())
	s := &Service{
		cfg:    cfg,
		queue:  make(chan *Job, cfg.QueueDepth),
		base:   base,
		cancel: cancel,
		jobs:   make(map[string]*Job),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleProgress)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/protocols", s.handleProtocols)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for i := 0; i < cfg.Schedulers; i++ {
		s.wg.Add(1)
		go s.scheduler()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels every queued and running job, waits for the schedulers to
// drain, and marks the service unavailable (submissions return 503).
// Idempotent.
func (s *Service) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.cancel(errors.New("service shutting down"))
	s.wg.Wait()
	// Jobs enqueued by a submit racing Close are drained here.
	for {
		select {
		case j := <-s.queue:
			s.stats.queued.Add(-1)
			j.finish(StateCanceled)
			s.stats.canceled.Add(1)
		default:
			return
		}
	}
}

// Stats returns the current counter snapshot.
func (s *Service) Stats() Stats {
	return Stats{
		Submitted:         s.stats.submitted.Load(),
		RejectedInvalid:   s.stats.rejectedInvalid.Load(),
		Shed:              s.stats.shed.Load(),
		Queued:            s.stats.queued.Load(),
		Active:            s.stats.active.Load(),
		Completed:         s.stats.completed.Load(),
		Canceled:          s.stats.canceled.Load(),
		Failed:            s.stats.failed.Load(),
		RunsDelivered:     s.stats.runsDelivered.Load(),
		RunsFailed:        s.stats.runsFailed.Load(),
		StreamsServed:     s.stats.streamsServed.Load(),
		ClientDisconnects: s.stats.clientDisconnects.Load(),
		QueueDepth:        s.cfg.QueueDepth,
	}
}

// scheduler pulls jobs off the bounded queue and runs them to completion.
func (s *Service) scheduler() {
	defer s.wg.Done()
	for {
		select {
		case <-s.base.Done():
			// Shutdown: cancel whatever is still queued.
			for {
				select {
				case j := <-s.queue:
					s.stats.queued.Add(-1)
					j.finish(StateCanceled)
					s.stats.canceled.Add(1)
				default:
					return
				}
			}
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one job: per-run obs plumbing, the context-aware sweep,
// and the lifecycle/stat transitions.
func (s *Service) runJob(j *Job) {
	s.stats.queued.Add(-1)
	if j.ctx.Err() != nil { // canceled while queued (DELETE or shutdown)
		j.finish(StateCanceled)
		s.stats.canceled.Add(1)
		return
	}
	s.stats.active.Add(1)
	j.setState(StateRunning)

	ctx := j.ctx
	if j.opts.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, j.opts.deadline,
			fmt.Errorf("job wall-clock deadline (%v) exceeded", j.opts.deadline))
		defer cancel()
	}

	cfgs := make([]scenario.Config, len(j.opts.cfgs))
	copy(cfgs, j.opts.cfgs)
	for i := range cfgs {
		cfgs[i].Progress = j.board.Run(i)
	}
	var series []*obs.Series
	if j.opts.trace || j.opts.series > 0 {
		series = make([]*obs.Series, len(cfgs))
		for i := range cfgs {
			bus := obs.NewBus()
			bus.Sample = j.opts.sample
			if j.opts.trace {
				run := i
				bus.Attach(obs.SinkFunc(func(ev obs.Event) {
					j.appendTrace(run, ev, s.cfg.Limits.MaxTraceLines)
				}))
			}
			if j.opts.series > 0 {
				series[i] = obs.NewSeries(j.opts.series)
				bus.Attach(series[i])
			}
			cfgs[i].Obs = bus
		}
	}

	// The in-stream heartbeat: wall-clock-paced progress lines, opt-in per
	// request so that the default stream carries no wall-clock lines. Even
	// so, it is deterministic only run by run: the runs of a multi-run job
	// go in parallel and append their trace lines as they emit them, so
	// lines of different runs interleave in wall-clock order. Each run's
	// own lines keep one order, and result lines come in submission order
	// (TestTracedStreamOrder).
	var hbStop, hbDone chan struct{}
	if j.opts.progress > 0 {
		hbStop, hbDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(hbDone)
			t := time.NewTicker(j.opts.progress)
			defer t.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-t.C:
					p := j.board.Snapshot(false)
					j.append(StreamLine{Type: "progress", Progress: &p})
				}
			}
		}()
	}

	err := scenario.RunEach(ctx, j.opts.workers, cfgs, func(i int, r scenario.Result, err error) {
		if err != nil {
			j.board.MarkDone(i)
			j.mu.Lock()
			j.runErrors++
			j.mu.Unlock()
			s.stats.runsFailed.Add(1)
			j.append(StreamLine{Type: "error", Run: i, Seed: cfgs[i].Seed, Error: err.Error()})
			return
		}
		j.board.MarkDone(i)
		if series != nil && series[i] != nil {
			td := series[i].Table(fmt.Sprintf("%s run %d series", j.id, i)).Data()
			j.append(StreamLine{Type: "series", Run: i, Seed: r.Cfg.Seed, Series: &td})
		}
		snap := r.Metrics.Snapshot()
		line := StreamLine{
			Type: "result", Run: i, Seed: r.Cfg.Seed,
			Metrics:      &snap,
			ElapsedS:     seconds(r.Elapsed),
			SensorsAlive: r.SensorsAlive,
			SensorsTotal: r.SensorsTotal,
		}
		if r.FirstDeath >= 0 {
			line.FirstDeathS = seconds(r.FirstDeath)
		}
		j.mu.Lock()
		j.delivered++
		j.mu.Unlock()
		s.stats.runsDelivered.Add(1)
		s.absorbRunMetrics(string(r.Cfg.Protocol), r.Metrics)
		j.append(line)
	})

	if hbStop != nil {
		close(hbStop)
		<-hbDone
	}
	s.stats.active.Add(-1)
	switch {
	case err == nil:
		j.finish(StateDone)
		s.stats.completed.Add(1)
	case errors.Is(err, scenario.ErrCanceled):
		j.finish(StateCanceled)
		s.stats.canceled.Add(1)
	default:
		j.finish(StateFailed)
		s.stats.failed.Add(1)
	}
}

// newID mints the next job ID.
func (s *Service) newID() string {
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.mu.Unlock()
	return fmt.Sprintf("job-%06d", id)
}

// register adds the job to the lookup table, evicting the oldest finished
// jobs past the retention bound.
func (s *Service) register(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	for len(s.order) > s.cfg.RetainJobs {
		evicted := false
		for i, old := range s.order {
			if old.finished.Load() {
				delete(s.jobs, old.id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything live; retention resumes once jobs finish
		}
	}
}

// job looks up a registered job.
func (s *Service) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// submitAccepted is the 202 body for an async submission.
type submitAccepted struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Runs      int    `json:"runs"`
	StatusURL string `json:"status_url"`
	StreamURL string `json:"stream_url"`
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "service shutting down"})
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req RunRequest
	if err := dec.Decode(&req); err != nil {
		s.stats.rejectedInvalid.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	opts, err := req.expand(s.cfg.Limits)
	if err != nil {
		s.stats.rejectedInvalid.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	j := newJob(s.newID(), opts, s.base)
	select {
	case s.queue <- j:
	default:
		// Load shedding: the bounded queue is full. The job never existed
		// as far as the registry is concerned.
		j.cancel(errors.New("shed"))
		s.stats.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, errorBody{
			Error: fmt.Sprintf("job queue full (%d deep); retry after %v", s.cfg.QueueDepth, s.cfg.RetryAfter)})
		return
	}
	s.stats.submitted.Add(1)
	s.stats.queued.Add(1)
	s.register(j)
	if r.URL.Query().Get("stream") == "1" {
		s.streamJob(w, r, j)
		return
	}
	writeJSON(w, http.StatusAccepted, submitAccepted{
		ID:        j.id,
		State:     StateQueued,
		Runs:      len(j.opts.cfgs),
		StatusURL: "/v1/jobs/" + j.id,
		StreamURL: "/v1/jobs/" + j.id + "/stream",
	})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	j.cancel(errors.New("canceled by DELETE"))
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	s.streamJob(w, r, j)
}

// streamJob writes the job's JSONL stream from the beginning, following the
// live tail until the job finishes. A client that disconnects mid-stream
// cancels the job — the stream is the job's liveness lease — unless it
// detached with ?detach=1 or the job already finished.
func (s *Service) streamJob(w http.ResponseWriter, r *http.Request, j *Job) {
	detach := r.URL.Query().Get("detach") == "1"
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	s.stats.streamsServed.Add(1)

	hdr, _ := json.Marshal(StreamLine{Type: "job", ID: j.id, State: j.status().State, Runs: len(j.opts.cfgs)})
	if _, err := w.Write(append(hdr, '\n')); err != nil {
		s.streamBroken(j, detach)
		return
	}
	if flusher != nil {
		flusher.Flush()
	}

	// Each wake-up sends everything appended since the last one: one Write
	// of whole lines straight from the job's buffer, and one Flush.
	done := r.Context().Done()
	off := 0
	for {
		tail, closed, aborted := j.wait(off, done)
		if aborted {
			s.streamBroken(j, detach)
			return
		}
		if _, err := w.Write(tail); err != nil {
			s.streamBroken(j, detach)
			return
		}
		off += len(tail)
		if flusher != nil {
			flusher.Flush()
		}
		if closed {
			return // terminal line delivered
		}
	}
}

// streamBroken handles a client that went away mid-stream: unless it
// detached, the job it was watching is canceled.
func (s *Service) streamBroken(j *Job, detach bool) {
	if detach || j.finished.Load() {
		return
	}
	j.cancel(errClientDisconnect)
	s.stats.clientDisconnects.Add(1)
}

func (s *Service) handleProtocols(w http.ResponseWriter, r *http.Request) {
	ids := protocol.IDs()
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = string(id)
	}
	writeJSON(w, http.StatusOK, map[string][]string{"protocols": names})
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "shutting down"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"queued": s.stats.queued.Load(),
		"active": s.stats.active.Load(),
	})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// progressBody is the JSON body of GET /v1/jobs/{id}/progress.
type progressBody struct {
	ID       string            `json:"id"`
	State    string            `json:"state"`
	Progress scenario.Progress `json:"progress"`
}

// handleProgress serves a job's live watermark: per-run virtual time, event
// and delivery counts published lock-free by the running kernels. Polling it
// is always safe — it never perturbs the simulation or the stream.
func (s *Service) handleProgress(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, progressBody{
		ID:       j.id,
		State:    j.status().State,
		Progress: j.board.Snapshot(true),
	})
}

// absorbRunMetrics folds one delivered run's metrics into the per-protocol
// lifetime aggregates served by GET /metrics.
func (s *Service) absorbRunMetrics(proto string, m *metrics.Memory) {
	s.promMu.Lock()
	defer s.promMu.Unlock()
	if s.promProto == nil {
		s.promProto = make(map[string]*metrics.Aggregate)
	}
	agg := s.promProto[proto]
	if agg == nil {
		agg = metrics.NewAggregate()
		s.promProto[proto] = agg
	}
	agg.Absorb(m)
}
