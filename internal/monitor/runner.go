package monitor

import (
	"rmtest/internal/core"
	"rmtest/internal/platform"
)

// Runner executes R- and M-testing with streaming verdict extraction: the
// online counterpart of core.Runner. It wraps a post-hoc runner so system
// assembly, stimulus scheduling and the Prepare hook are byte-for-byte the
// run core.Runner would execute; only verdict extraction differs — and is
// asserted not to.
type Runner struct {
	// Post owns system setup and the M-level segment annotation.
	Post *core.Runner
	// EarlyStop cuts each kernel run short once every sample is decided.
	// Verdicts are identical either way; only simulated work differs.
	EarlyStop bool
}

// NewRunner validates the requirement and returns an online runner.
func NewRunner(factory core.SystemFactory, req core.Requirement) (*Runner, error) {
	post, err := core.NewRunner(factory, req)
	if err != nil {
		return nil, err
	}
	return &Runner{Post: post}, nil
}

// run executes one monitored run at the given instrumentation level and
// returns the system (still live — caller must Shutdown) plus the
// flushed monitor.
func (r *Runner) run(level platform.Instrument, tc core.TestCase) (*platform.System, *Monitor, error) {
	mon, err := New(r.Post.Req, tc)
	if err != nil {
		return nil, nil, err
	}
	sys, err := r.Post.Setup(level, tc)
	if err != nil {
		return nil, nil, err
	}
	// The callers only arm their deferred Shutdown once run returns; a
	// panic during the simulation (e.g. inside a fault callback) must
	// not leak the system's task goroutines.
	done := false
	defer func() {
		if !done {
			sys.Shutdown()
		}
	}()
	mon.Attach(sys, r.EarlyStop)
	horizon := tc.Horizon(r.Post.Req)
	kernelBefore := sys.Kernel.EventsFired()
	sys.Run(horizon)
	mon.Flush(sys.Kernel.Now())
	mon.stats.StoppedAt = sys.Kernel.Now()
	mon.stats.StoppedEarly = sys.Kernel.Now() < horizon
	mon.stats.KernelEvents = sys.Kernel.EventsFired() - kernelBefore
	mon.stats.Label = sys.SchemeName() + "/" + level.String()
	done = true
	return sys, mon, nil
}

// RunR executes R-testing with streaming verdicts. The returned RResult
// is value-identical to core.Runner.RunR on the same test case.
func (r *Runner) RunR(tc core.TestCase) (core.RResult, Stats, error) {
	sys, mon, err := r.run(platform.RLevel, tc)
	if err != nil {
		return core.RResult{}, Stats{}, err
	}
	defer sys.Shutdown()
	return core.RResult{
		Requirement: r.Post.Req,
		Scheme:      sys.SchemeName(),
		Case:        tc,
		Samples:     mon.Results(),
	}, mon.Stats(), nil
}

// RunM executes M-testing with streaming base verdicts; the delay-segment
// annotation reuses core.Runner.AnnotateM over the recorded trace, so the
// MResult is value-identical to the post-hoc path. An early-stopped run
// annotates from the truncated trace, which is safe: the deadline-bounded
// chain matching only needs events up to the last decision instant.
func (r *Runner) RunM(tc core.TestCase) (core.MResult, Stats, error) {
	sys, mon, err := r.run(platform.MLevel, tc)
	if err != nil {
		return core.MResult{}, Stats{}, err
	}
	defer sys.Shutdown()
	return r.Post.AnnotateM(sys, tc, mon.Results()), mon.Stats(), nil
}
