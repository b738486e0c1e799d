package scenario

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"wmsn/internal/runner"
)

// ErrCanceled marks a run stopped by context cancellation or deadline
// expiry rather than by a configuration problem. Errors returned by
// RunContext and RunEach wrap both ErrCanceled and the context's cause, so
// callers can test either:
//
//	errors.Is(err, scenario.ErrCanceled)        // canceled, any reason
//	errors.Is(err, context.DeadlineExceeded)    // specifically a deadline
var ErrCanceled = errors.New("scenario: run canceled")

// canceled wraps the context's cause in ErrCanceled.
func canceled(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
}

// RunContext builds the network for cfg, drives traffic for cfg.RunFor, and
// summarizes. An invalid configuration comes back as an error (see
// Config.Validate), never as a panic.
//
// The run stops within one kernel event batch of ctx being canceled or its
// deadline expiring, returning a zero Result and an error wrapping
// ErrCanceled (see above). Cancellation is threaded through the kernel's
// interrupt flag, so the simulation itself — not just the wrapper — stops:
// a sweep whose client disconnected does not keep burning CPU to its
// horizon. A ctx that can never be canceled (context.Background,
// context.TODO) arms no flag and no watcher, so it adds no work and no
// allocation to the run.
//
// The run owns all of its state: its kernel, media and world are built by
// BuildE, exactly as for a hand-driven net, and share nothing with other
// runs.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, canceled(ctx)
	}
	n, err := BuildE(cfg)
	if err != nil {
		return Result{}, err
	}
	var stop func() bool
	if ctx.Done() != nil {
		var flag atomic.Bool
		n.World.Kernel().SetInterrupt(&flag)
		stop = context.AfterFunc(ctx, func() { flag.Store(true) })
	}
	res := n.RunTraffic()
	if stop != nil {
		stop()
	}
	if err := ctx.Err(); err != nil {
		// The world stopped mid-run; its summary is partial and misleading,
		// so report only the cancellation.
		return Result{}, canceled(ctx)
	}
	return res, nil
}

// RunEach executes every config on a bounded worker pool (workers<=0
// selects one per CPU, 1 runs sequentially) and streams each run's outcome
// to fn in submission-index order: fn is called exactly once per index,
// indices ascending, on the caller's goroutine. A run that finishes ahead
// of a slower lower index is buffered until that index has been delivered
// (see runner.MapEach). A successful run delivers (i, result, nil); an
// invalid config delivers its validation error; after ctx is canceled every
// remaining index delivers an ErrCanceled-wrapping error (in-flight runs
// stop within one event batch, not-yet-started runs never start).
//
// The results delivered for completed runs are bit-identical to calling
// RunContext on each config in turn: every run owns its kernel, RNG and
// world, and worker count only changes scheduling, never outcomes. Configs
// with Mutate/StackWrapper hooks are safe as long as the hooks touch only
// their own run's state. RunEach returns the first (lowest-index) error, or
// nil when every run completed.
func RunEach(ctx context.Context, workers int, cfgs []Config, fn func(i int, r Result, err error)) error {
	var firstErr error
	runner.MapEach(workers, len(cfgs), func(i int) (Result, error) {
		return RunContext(ctx, cfgs[i])
	}, func(i int, r Result, err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if fn != nil {
			fn(i, r, err)
		}
	})
	return firstErr
}
