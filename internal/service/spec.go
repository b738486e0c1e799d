// Package service is the simulation-as-a-service layer behind cmd/wmsnd: an
// HTTP/JSON daemon that accepts validated scenario configurations (single
// runs and sweeps), schedules them on a bounded job queue with per-job
// limits, sheds load with 429 + Retry-After when the queue is full, and
// streams per-run results, obs trace events and time-bucketed series live as
// JSON lines while jobs execute. Cancellation (client disconnect, DELETE,
// wall-clock deadline, daemon shutdown) flows through scenario.RunEach's
// context into the simulation kernel, so a canceled job stops within one
// event batch instead of burning CPU to its horizon.
package service

import (
	"errors"
	"fmt"
	"time"

	"wmsn/internal/core"
	"wmsn/internal/fault"
	"wmsn/internal/packet"
	"wmsn/internal/protocol"
	"wmsn/internal/scenario"
	"wmsn/internal/sim"
)

// RunSpec is the JSON wire form of one scenario: the subset of
// scenario.Config that serializes cleanly (no hooks, no function-valued
// fields). Durations travel as float64 virtual seconds. Zero fields take the
// library defaults (scenario.Defaults), so `{"protocol":"spr"}` is a
// complete, valid spec.
type RunSpec struct {
	Seed        int64   `json:"seed,omitempty"`
	Protocol    string  `json:"protocol,omitempty"`
	NumSensors  int     `json:"num_sensors,omitempty"`
	Side        float64 `json:"side,omitempty"`
	SensorRange float64 `json:"sensor_range,omitempty"`
	NumGateways int     `json:"num_gateways,omitempty"`
	Rounds      int     `json:"rounds,omitempty"`
	RoundLenS   float64 `json:"round_len_s,omitempty"`

	ReportIntervalS float64 `json:"report_interval_s,omitempty"`
	PayloadSize     int     `json:"payload_size,omitempty"`
	WarmupS         float64 `json:"warmup_s,omitempty"`
	RunForS         float64 `json:"run_for_s,omitempty"`

	StopAtFirstDeath bool `json:"stop_at_first_death,omitempty"`

	LossRate   float64 `json:"loss_rate,omitempty"`
	Collisions bool    `json:"collisions,omitempty"`
	CSMA       bool    `json:"csma,omitempty"`

	LEACHProb         float64 `json:"leach_prob,omitempty"`
	NoShortcutAnswers bool    `json:"no_shortcut_answers,omitempty"`

	// LinkRetries arms the hop-by-hop link ARQ with the default timing
	// (core.DefaultParams), overriding only the retry budget.
	LinkRetries int `json:"link_retries,omitempty"`

	// Faults is a declarative fault schedule, the wire form of the E13-style
	// reliability scenarios.
	Faults []FaultSpec `json:"faults,omitempty"`
}

// FaultSpec is one scheduled fault event.
type FaultSpec struct {
	// Kind is one of "crash", "recover", "kill_gateway", "degrade_all".
	Kind string `json:"kind"`
	// AtS is the virtual time of the event in seconds.
	AtS float64 `json:"at_s"`
	// Node targets crash/recover (a sensor node ID).
	Node uint32 `json:"node,omitempty"`
	// Gateway targets kill_gateway (a gateway index, 0-based).
	Gateway int `json:"gateway,omitempty"`
	// Loss is the per-link loss rate for degrade_all.
	Loss float64 `json:"loss,omitempty"`
}

// RunRequest is the body of POST /v1/runs: either one spec replicated
// across consecutive seeds (a classic averaging sweep) or an explicit list
// of specs, plus delivery options.
type RunRequest struct {
	// Run, with Seeds, expands to Seeds copies of the spec at seeds
	// Seed, Seed+1, ... Seed+Seeds-1. Seeds 0 means 1.
	Run   *RunSpec `json:"run,omitempty"`
	Seeds int      `json:"seeds,omitempty"`
	// Runs is the explicit sweep form; exactly one of Run/Runs must be set.
	Runs []RunSpec `json:"runs,omitempty"`

	// Workers bounds this job's intra-sweep parallelism; 0 selects the
	// service default, and the service clamps it to its per-job limit.
	Workers int `json:"workers,omitempty"`

	// Trace streams every run's obs events as {"type":"trace"} lines.
	Trace bool `json:"trace,omitempty"`
	// SampleS is the gauge-sampling interval in virtual seconds for traced
	// runs (obs.Bus.Sample); 0 disables gauge samples.
	SampleS float64 `json:"sample_s,omitempty"`
	// SeriesS, when positive, emits one {"type":"series"} line per run with
	// the trace stream folded into buckets of this many virtual seconds.
	// Implies event collection even when Trace is false.
	SeriesS float64 `json:"series_s,omitempty"`

	// DeadlineS is the job's wall-clock execution budget in seconds,
	// measured from the moment a scheduler picks the job up. 0 selects the
	// service default; the service clamps it to its per-job maximum.
	DeadlineS float64 `json:"deadline_s,omitempty"`

	// ProgressS, when positive, emits one {"type":"progress"} heartbeat line
	// on the job stream every ProgressS wall-clock seconds while the job
	// runs, carrying the aggregated live watermark (virtual time, events,
	// deliveries per run). Progress polling via GET /v1/jobs/{id}/progress is
	// always available regardless of this field; ProgressS only controls the
	// in-stream heartbeat. 0 keeps the stream strictly deterministic (no
	// wall-clock-dependent lines).
	ProgressS float64 `json:"progress_s,omitempty"`
}

// Limits bounds what one job may ask of the service. The zero value selects
// every default.
type Limits struct {
	// MaxNodes caps NumSensors + NumGateways per run (default 20000).
	MaxNodes int
	// MaxHorizon caps RunFor per run (default 1 virtual hour).
	MaxHorizon sim.Duration
	// MaxRunsPerJob caps the sweep size (default 256).
	MaxRunsPerJob int
	// MaxWorkersPerJob caps intra-job parallelism (default 4).
	MaxWorkersPerJob int
	// DefaultDeadline and MaxDeadline bound the wall-clock execution budget
	// (defaults 60 s and 300 s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxTraceLines caps the number of buffered trace lines per job; past
	// it the stream carries one truncation notice and further trace events
	// are dropped (results and series are never dropped). Default 100000.
	MaxTraceLines int
}

func (l Limits) withDefaults() Limits {
	if l.MaxNodes <= 0 {
		l.MaxNodes = 20000
	}
	if l.MaxHorizon <= 0 {
		l.MaxHorizon = sim.Hour
	}
	if l.MaxRunsPerJob <= 0 {
		l.MaxRunsPerJob = 256
	}
	if l.MaxWorkersPerJob <= 0 {
		l.MaxWorkersPerJob = 4
	}
	if l.DefaultDeadline <= 0 {
		l.DefaultDeadline = 60 * time.Second
	}
	if l.MaxDeadline <= 0 {
		l.MaxDeadline = 300 * time.Second
	}
	if l.DefaultDeadline > l.MaxDeadline {
		l.DefaultDeadline = l.MaxDeadline
	}
	if l.MaxTraceLines <= 0 {
		l.MaxTraceLines = 100000
	}
	return l
}

// Bounds on a request's wall-clock heartbeat and series buckets. A faster
// heartbeat, or a finer series, makes a short job stream megabytes.
const (
	minProgressS     = 0.01
	maxSeriesBuckets = 10_000
)

func secs(s float64) sim.Duration { return sim.Duration(s * float64(sim.Second)) }

// config converts the wire spec into a scenario.Config.
func (s RunSpec) config() (scenario.Config, error) {
	cfg := scenario.Config{
		Seed:              s.Seed,
		Protocol:          protocol.ID(s.Protocol),
		NumSensors:        s.NumSensors,
		Side:              s.Side,
		SensorRange:       s.SensorRange,
		NumGateways:       s.NumGateways,
		Rounds:            s.Rounds,
		RoundLen:          secs(s.RoundLenS),
		ReportInterval:    secs(s.ReportIntervalS),
		PayloadSize:       s.PayloadSize,
		Warmup:            secs(s.WarmupS),
		RunFor:            secs(s.RunForS),
		StopAtFirstDeath:  s.StopAtFirstDeath,
		LossRate:          s.LossRate,
		Collisions:        s.Collisions,
		CSMA:              s.CSMA,
		LEACHProb:         s.LEACHProb,
		NoShortcutAnswers: s.NoShortcutAnswers,
	}
	if s.LinkRetries > 0 {
		p := core.DefaultParams()
		p.LinkRetries = s.LinkRetries
		cfg.Params = &p
	}
	if len(s.Faults) > 0 {
		plan := fault.NewPlan()
		for i, f := range s.Faults {
			at := secs(f.AtS)
			switch f.Kind {
			case "crash":
				plan.CrashAt(at, packet.NodeID(f.Node))
			case "recover":
				plan.RecoverAt(at, packet.NodeID(f.Node))
			case "kill_gateway":
				plan.KillGateway(at, f.Gateway)
			case "degrade_all":
				plan.DegradeAll(at, f.Loss)
			default:
				return cfg, fmt.Errorf("faults[%d]: unknown kind %q (want crash, recover, kill_gateway or degrade_all)", i, f.Kind)
			}
		}
		cfg.Faults = plan
	}
	return cfg, nil
}

// jobOptions is a validated, limit-clamped run request ready to execute.
type jobOptions struct {
	cfgs     []scenario.Config
	workers  int
	trace    bool
	sample   sim.Duration
	series   sim.Duration
	deadline time.Duration
	progress time.Duration // stream-heartbeat interval; 0 = no heartbeat lines
}

// expand validates the request against the limits and expands it into
// concrete scenario configs. All problems are joined into one error so a
// client sees every rejection reason at once.
func (r RunRequest) expand(l Limits) (jobOptions, error) {
	var errs []error
	var specs []RunSpec
	switch {
	case r.Run != nil && len(r.Runs) > 0:
		errs = append(errs, errors.New("set either run or runs, not both"))
	case r.Run != nil:
		seeds := r.Seeds
		if seeds <= 0 {
			seeds = 1
		}
		if seeds > l.MaxRunsPerJob {
			errs = append(errs, fmt.Errorf("seeds %d exceeds the per-job run limit %d", seeds, l.MaxRunsPerJob))
			seeds = 0
		}
		for i := 0; i < seeds; i++ {
			sp := *r.Run
			sp.Seed += int64(i)
			specs = append(specs, sp)
		}
	case len(r.Runs) > 0:
		if len(r.Runs) > l.MaxRunsPerJob {
			errs = append(errs, fmt.Errorf("%d runs exceeds the per-job run limit %d", len(r.Runs), l.MaxRunsPerJob))
		} else {
			specs = r.Runs
		}
	default:
		errs = append(errs, errors.New("empty request: set run (optionally with seeds) or runs"))
	}
	if r.Seeds > 0 && r.Run == nil {
		errs = append(errs, errors.New("seeds is only meaningful with run"))
	}

	o := jobOptions{
		trace:  r.Trace,
		sample: secs(r.SampleS),
		series: secs(r.SeriesS),
	}
	for i, sp := range specs {
		cfg, err := sp.config()
		if err == nil {
			err = cfg.Validate()
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("run %d: %w", i, err))
			continue
		}
		full := scenario.Defaults(cfg)
		// Validate refused negative counts; a huge one would overflow the sum.
		if full.NumSensors > l.MaxNodes-full.NumGateways {
			errs = append(errs, fmt.Errorf("run %d: %d+%d nodes exceeds the per-run limit %d", i, full.NumSensors, full.NumGateways, l.MaxNodes))
		}
		if full.RunFor > l.MaxHorizon {
			errs = append(errs, fmt.Errorf("run %d: horizon %v exceeds the per-run limit %v", i, full.RunFor, l.MaxHorizon))
		}
		// In float seconds on the converted width, so a series_s that
		// rounds to 0 µs is rejected too.
		if r.SeriesS > 0 && full.RunFor.Seconds() > maxSeriesBuckets*o.series.Seconds() {
			errs = append(errs, fmt.Errorf("run %d: series_s %g cuts the %v horizon into more than %d buckets", i, r.SeriesS, full.RunFor, maxSeriesBuckets))
		}
		o.cfgs = append(o.cfgs, cfg)
	}

	o.workers = r.Workers
	if o.workers < 0 {
		errs = append(errs, fmt.Errorf("workers %d is negative", o.workers))
	}
	if o.workers == 0 || o.workers > l.MaxWorkersPerJob {
		o.workers = l.MaxWorkersPerJob
	}
	// Both time fields are compared in seconds before they are converted:
	// a time.Duration overflows past about 292 years.
	if r.DeadlineS < 0 {
		errs = append(errs, fmt.Errorf("deadline_s %g is negative", r.DeadlineS))
	}
	if r.DeadlineS > l.MaxDeadline.Seconds() {
		errs = append(errs, fmt.Errorf("deadline_s %g exceeds the service maximum %gs", r.DeadlineS, l.MaxDeadline.Seconds()))
	}
	o.deadline = time.Duration(r.DeadlineS * float64(time.Second))
	if o.deadline == 0 {
		o.deadline = l.DefaultDeadline
	}
	if r.SampleS < 0 || r.SeriesS < 0 {
		errs = append(errs, errors.New("sample_s and series_s must be non-negative"))
	}
	if r.ProgressS != 0 && (r.ProgressS < minProgressS || r.ProgressS > l.MaxDeadline.Seconds()) {
		errs = append(errs, fmt.Errorf("progress_s %g is outside [%g, %g] seconds; 0 turns the heartbeat off", r.ProgressS, minProgressS, l.MaxDeadline.Seconds()))
	}
	o.progress = time.Duration(r.ProgressS * float64(time.Second))
	if err := errors.Join(errs...); err != nil {
		return jobOptions{}, err
	}
	return o, nil
}
