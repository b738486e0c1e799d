package service

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"sync"
	"sync/atomic"

	"wmsn/internal/metrics"
	"wmsn/internal/obs"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
	"wmsn/internal/trace"
)

// Job states, in lifecycle order.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// StreamLine is one line of a job's JSONL stream. Exactly one of the
// optional payload fields is set, discriminated by Type:
//
//	"job"     stream header: job ID, state, run count
//	"trace"   one obs event of run Run (Ev set)
//	"series"  run Run's time-bucketed series (Series set), emitted at run end
//	"result"  run Run completed (Metrics and the summary fields set)
//	"error"   run Run failed or was canceled (Error set)
//	"notice"  service notice (Error carries the text, e.g. trace truncation)
//	"progress" wall-clock heartbeat with the live watermark (Progress set);
//	          only emitted when the request set progress_s > 0
//	"done"    terminal line: final state and delivery counts
//
// cmd/wmsntrace -from-stream consumes this framing to replay a streamed
// run's trace through the standard replay pipeline.
type StreamLine struct {
	Type  string `json:"type"`
	Run   int    `json:"run,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	State string `json:"state,omitempty"`

	ID   string `json:"id,omitempty"`
	Runs int    `json:"runs,omitempty"`

	Ev       *obs.Event         `json:"ev,omitempty"`
	Series   *trace.TableData   `json:"series,omitempty"`
	Progress *scenario.Progress `json:"progress,omitempty"`

	Metrics      *metrics.Snapshot `json:"metrics,omitempty"`
	ElapsedS     float64           `json:"elapsed_s,omitempty"`
	FirstDeathS  float64           `json:"first_death_s,omitempty"`
	SensorsAlive int               `json:"sensors_alive,omitempty"`
	SensorsTotal int               `json:"sensors_total,omitempty"`

	Error string `json:"error,omitempty"`

	Delivered int `json:"delivered,omitempty"`
	Errors    int `json:"errors,omitempty"`
}

// seconds renders a virtual time as float seconds for the wire.
func seconds(t sim.Time) float64 { return float64(t) / float64(sim.Second) }

// AppendTraceLine appends the stream line that carries event ev of run run,
// without its newline, and returns the extended slice. The bytes are those
// json.Marshal(StreamLine{Type: "trace", Run: run, Ev: &ev}) writes, and with
// room in dst nothing is allocated.
func AppendTraceLine(dst []byte, run int, ev obs.Event) []byte {
	dst = append(dst, `{"type":"trace"`...)
	if run != 0 {
		dst = append(dst, `,"run":`...)
		dst = strconv.AppendInt(dst, int64(run), 10)
	}
	dst = append(dst, `,"ev":`...)
	return append(ev.AppendJSON(dst), '}')
}

// truncatedNotice is the one notice line a job whose trace reached its cap
// carries.
var truncatedNotice, _ = json.Marshal(StreamLine{Type: "notice", Error: "trace truncated: per-job trace line limit reached"})

// Job is one accepted run request moving through the queue. Its stream
// buffer retains every emitted line for the job's lifetime so late or
// repeated streamers replay from the start and still see live tail growth.
type Job struct {
	id   string
	opts jobOptions

	// board holds one lock-free progress probe per run; the kernels publish
	// watermarks into it and GET /v1/jobs/{id}/progress reads them live.
	board *scenario.ProgressBoard

	ctx    context.Context
	cancel context.CancelCauseFunc

	// finished flips exactly once, before the terminal stream line; the
	// disconnect watcher reads it to avoid canceling an already-done job.
	finished atomic.Bool

	mu    sync.Mutex
	state string
	// stream holds every line emitted so far, each ending in '\n'. It only
	// grows: streamers read their unsent tail outside the lock, which is
	// safe because no byte below len(stream) is ever written again.
	stream []byte
	// wake is made by a streamer that waits for more and closed by the next
	// append or by finish, so lines appended while nobody waits cost no
	// channel.
	wake       chan struct{}
	closed     bool // terminal line written; no more appends
	traceLines int  // trace lines buffered so far (for the cap)
	truncated  bool
	delivered  int // runs that produced a result
	runErrors  int // runs that delivered an error
}

func newJob(id string, opts jobOptions, base context.Context) *Job {
	ctx, cancel := context.WithCancelCause(base)
	return &Job{
		id:     id,
		opts:   opts,
		board:  scenario.NewProgressBoard(len(opts.cfgs)),
		ctx:    ctx,
		cancel: cancel,
		state:  StateQueued,
	}
}

// append marshals one stream line into the buffer and wakes every waiting
// streamer. Appends after close are dropped (a canceled job's in-flight
// trace emissions race its terminal line; losing them is correct).
func (j *Job) append(l StreamLine) {
	b, err := json.Marshal(l)
	if err != nil {
		return // a StreamLine always marshals; defensive only
	}
	j.mu.Lock()
	j.appendLocked(b)
	j.mu.Unlock()
}

// appendTrace is append for the high-volume trace lines: it encodes event
// ev of run run on the stack and enforces the per-job cap, appending a
// single truncation notice when the cap is crossed.
func (j *Job) appendTrace(run int, ev obs.Event, maxLines int) {
	var scratch [256]byte
	line := AppendTraceLine(scratch[:0], run, ev)
	j.mu.Lock()
	if !j.closed {
		switch {
		case j.traceLines < maxLines:
			j.traceLines++
			j.appendLocked(line)
		case !j.truncated:
			j.truncated = true
			j.appendLocked(truncatedNotice)
		}
	}
	j.mu.Unlock()
}

// appendLocked adds line and its newline to the stream unless it is closed,
// and wakes the waiting streamers. The caller holds j.mu.
func (j *Job) appendLocked(line []byte) {
	if j.closed {
		return
	}
	j.stream = append(append(j.stream, line...), '\n')
	if j.wake != nil {
		close(j.wake)
		j.wake = nil
	}
}

// setState transitions the job's reported state.
func (j *Job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// finish writes the terminal line and closes the stream. Idempotent. The
// buffer is then copied down to its length, so a retained job holds only
// its bytes; streamers still reading the old buffer keep it alive until
// they are done.
func (j *Job) finish(state string) {
	if !j.finished.CompareAndSwap(false, true) {
		return
	}
	j.mu.Lock()
	j.state = state
	done, _ := json.Marshal(StreamLine{Type: "done", ID: j.id, State: state,
		Runs: len(j.opts.cfgs), Delivered: j.delivered, Errors: j.runErrors})
	j.appendLocked(done)
	j.closed = true
	j.stream = bytes.Clone(j.stream)
	j.mu.Unlock()
}

// Status is the JSON body of GET /v1/jobs/{id}.
type Status struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Runs      int    `json:"runs"`
	Delivered int    `json:"delivered"`
	Errors    int    `json:"errors,omitempty"`
	Truncated bool   `json:"trace_truncated,omitempty"`
}

func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:        j.id,
		State:     j.state,
		Runs:      len(j.opts.cfgs),
		Delivered: j.delivered,
		Errors:    j.runErrors,
		Truncated: j.truncated,
	}
}

// wait blocks until the stream holds bytes past off, the stream is closed,
// or done fires. It returns the bytes past off, whole lines capped at their
// length so that nothing the caller does can reach the buffer, whether the
// stream is closed, and whether the wait was aborted by done.
func (j *Job) wait(off int, done <-chan struct{}) (tail []byte, closed, aborted bool) {
	for {
		j.mu.Lock()
		if n := len(j.stream); n > off || j.closed {
			tail, closed = j.stream[off:n:n], j.closed
			j.mu.Unlock()
			return tail, closed, false
		}
		if j.wake == nil {
			j.wake = make(chan struct{})
		}
		ch := j.wake
		j.mu.Unlock()
		select {
		case <-ch:
		case <-done:
			return nil, false, true
		}
	}
}
