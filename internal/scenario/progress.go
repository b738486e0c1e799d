package scenario

import "wmsn/internal/sim"

// ProgressBoard fans one watermark per run out to a multi-run job and folds
// them back into a single live view. The board is allocated once (a flat
// slice of sim.Progress, no per-run pointers to chase) and is safe to read
// from any goroutine while workers run: each underlying probe is lock-free.
//
// Typical wiring (the service daemon does exactly this):
//
//	board := scenario.NewProgressBoard(len(cfgs))
//	for i := range cfgs {
//		cfgs[i].Progress = board.Run(i)
//	}
//	... RunEach ...    // poll board.Snapshot() meanwhile
type ProgressBoard struct {
	runs []sim.Progress
}

// NewProgressBoard returns a board tracking n runs.
func NewProgressBoard(n int) *ProgressBoard {
	if n < 0 {
		n = 0
	}
	return &ProgressBoard{runs: make([]sim.Progress, n)}
}

// Run returns run i's probe, to be planted in that run's Config.Progress.
// Out-of-range indices return nil (a valid, inert probe target).
func (b *ProgressBoard) Run(i int) *sim.Progress {
	if b == nil || i < 0 || i >= len(b.runs) {
		return nil
	}
	return &b.runs[i]
}

// MarkDone flags run i finished — for runs that error out before RunTraffic
// (which marks successful runs itself) ever starts. Idempotent.
func (b *ProgressBoard) MarkDone(i int) { b.Run(i).MarkDone() }

// RunProgress is one run's live watermark, JSON-shaped for the service API.
type RunProgress struct {
	Run        int     `json:"run"`
	SimTimeS   float64 `json:"sim_time_s"`
	Events     uint64  `json:"events"`
	Deliveries uint64  `json:"deliveries"`
	Done       bool    `json:"done"`
}

// Progress aggregates a board: totals across runs plus the per-run detail.
type Progress struct {
	Runs       int           `json:"runs"`
	DoneRuns   int           `json:"done_runs"`
	Events     uint64        `json:"events"`
	Deliveries uint64        `json:"deliveries"`
	SimTimeS   float64       `json:"sim_time_s"` // summed across runs
	PerRun     []RunProgress `json:"per_run,omitempty"`
}

// Snapshot reads every probe and aggregates. With perRun set, the per-run
// watermarks ride along (runs that have not started yet report zeros).
func (b *ProgressBoard) Snapshot(perRun bool) Progress {
	if b == nil {
		return Progress{}
	}
	out := Progress{Runs: len(b.runs)}
	for i := range b.runs {
		s := b.runs[i].Snapshot()
		if s.Done {
			out.DoneRuns++
		}
		out.Events += s.Events
		out.Deliveries += s.Deliveries
		out.SimTimeS += s.SimTime.Seconds()
		if perRun {
			out.PerRun = append(out.PerRun, RunProgress{
				Run:        i,
				SimTimeS:   s.SimTime.Seconds(),
				Events:     s.Events,
				Deliveries: s.Deliveries,
				Done:       s.Done,
			})
		}
	}
	return out
}
