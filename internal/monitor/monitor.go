// Package monitor is the streaming runtime-verification engine: the
// online counterpart of core.Runner's post-hoc verdict extraction.
//
// The post-hoc path runs the implemented system to the full test-case
// horizon, buffers the entire four-variable trace and scans it afterwards
// (Runner.Evaluate). The monitor instead subscribes to the trace as the
// simulation kernel emits events (fourvar.Trace.Tap) and evaluates each
// requirement's m -> c chain on the fly, one small state machine per
// in-flight stimulus — the on-the-fly matching of timed traces of
// Chupilko & Kamkin, with the quiescence/timeout verdicts of Brandán
// Briones et al. folded into per-stimulus deadline watchdogs. A machine
// is pruned the moment its PASS/FAIL/MAX verdict fires, so monitor state
// is O(in-flight stimuli) instead of O(trace length), and when every
// monitored requirement is decided the kernel run can be cut short
// (sim.Kernel.StopWhen).
//
// No experiment or CLI uses the monitor: every verdict they report comes
// from core.Runner's post-hoc evaluation. The monitor is a library-level
// differential oracle, asserted byte-identical to the post-hoc
// evaluation (same SampleResult values, bit for bit) across the three
// schemes and under fault injection, and the benchmark's traced replay
// uses it to measure what early termination would save. The equivalence
// argument is spelled out in DESIGN.md ("Online monitor as a
// differential oracle").
package monitor

import (
	"fmt"

	"rmtest/internal/core"
	"rmtest/internal/fourvar"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

// phase is the life cycle of one per-stimulus state machine:
//
//	waitM --m-event--> waitC --credited c / deadline--> done (pruned)
type phase int

const (
	waitM phase = iota // stimulus scripted, m-event not yet observed
	waitC              // m observed, waiting for a creditable c-event
	done               // verdict recorded, machine pruned
)

// machine is the per-stimulus state machine. It holds only what the
// verdict needs: the scripted instant, the matched m-event and the armed
// deadline watchdog. Decided machines are removed from the monitor's
// in-flight list; their SampleResult lives in the result slots.
type machine struct {
	idx int      // sample index within the test case
	at  sim.Time // scripted stimulus instant
	ph  phase
	m   fourvar.Event // matched m-event (valid in waitC)
	wd  sim.Event     // deadline watchdog, armed on m-observation
}

// Stats are the monitor's observability counters.
type Stats struct {
	// Label identifies the run in reports (driver-assigned,
	// e.g. "scheme3/R").
	Label string
	// Requirement is the monitored requirement's ID.
	Requirement string
	// Samples is the number of monitored stimuli.
	Samples int
	// Events counts four-variable events consumed from the stream.
	Events uint64
	// PeakInFlight is the maximum number of undecided per-stimulus
	// machines alive at once — the monitor's memory high-water mark.
	PeakInFlight int
	// Watchdogs counts deadline watchdog events armed.
	Watchdogs int
	// DecidedAt records, indexed by sample, the virtual instant each
	// verdict fired (the flush instant for samples only decidable at the
	// end of the run).
	DecidedAt []sim.Time
	// StoppedAt is the virtual instant the kernel run ended.
	StoppedAt sim.Time
	// Horizon is the test case's full horizon.
	Horizon sim.Time
	// StoppedEarly reports whether early termination cut the run short.
	StoppedEarly bool
	// KernelEvents is the number of kernel events the run fired — the
	// simulated-work measure early termination reduces.
	KernelEvents uint64
}

func (s Stats) String() string {
	return fmt.Sprintf("%s %s: %d samples, %d events, peak in-flight %d, stopped %v/%v (early=%v, %d kernel events)",
		s.Label, s.Requirement, s.Samples, s.Events, s.PeakInFlight,
		s.StoppedAt, s.Horizon, s.StoppedEarly, s.KernelEvents)
}

// Monitor streams one requirement's verdicts over one test case. Create
// with New, wire with Attach (or Group.Attach), run the system, then
// Flush at the end of the run and read Results.
type Monitor struct {
	req     core.Requirement
	tc      core.TestCase
	timeout sim.Time
	k       *sim.Kernel

	inflight []*machine          // undecided machines, in sample order
	results  []core.SampleResult // slot per sample, filled on decision
	decided  int

	// Same-instant buffer: events of one virtual instant are batched and
	// m-events are admitted before c-events, mirroring the post-hoc
	// searches' At >= t semantics, which are indifferent to record order
	// within an instant.
	bufAt sim.Time
	buf   []fourvar.Event

	stats Stats
}

// New builds a monitor for one requirement over one test case. Stimulus
// instants must be non-decreasing (every Generator strategy produces
// them so); the FIFO response-crediting rule relies on it.
func New(req core.Requirement, tc core.TestCase) (*Monitor, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	for i := 1; i < len(tc.Stimuli); i++ {
		if tc.Stimuli[i] < tc.Stimuli[i-1] {
			return nil, fmt.Errorf("monitor: stimuli must be non-decreasing (stimulus %d at %v after %v)",
				i, tc.Stimuli[i], tc.Stimuli[i-1])
		}
	}
	m := &Monitor{
		req:     req,
		tc:      tc,
		timeout: req.EffectiveTimeout(),
		results: make([]core.SampleResult, len(tc.Stimuli)),
	}
	m.stats.Requirement = req.ID
	m.stats.Samples = len(tc.Stimuli)
	m.stats.Horizon = tc.Horizon(req)
	m.stats.DecidedAt = make([]sim.Time, len(tc.Stimuli))
	for i, at := range tc.Stimuli {
		m.inflight = append(m.inflight, &machine{idx: i, at: at, ph: waitM})
	}
	if len(m.inflight) > m.stats.PeakInFlight {
		m.stats.PeakInFlight = len(m.inflight)
	}
	return m, nil
}

// Attach wires the monitor to an assembled system: it subscribes to the
// four-variable trace and, when earlyStop is set, registers the kernel
// stop hook that cuts the run short once every sample is decided. To
// co-monitor several requirements on one system with a single early-stop
// decision, use a Group instead.
func (m *Monitor) Attach(sys *platform.System, earlyStop bool) {
	m.bind(sys)
	if earlyStop {
		sys.Kernel.StopWhen(m.Done)
	}
}

// bind subscribes to the system's event stream without registering a
// stop condition.
func (m *Monitor) bind(sys *platform.System) {
	if m.k != nil {
		panic("monitor: already attached")
	}
	m.k = sys.Kernel
	sys.Trace.Tap(m.OnEvent)
}

// Done reports whether every sample's verdict is decided.
func (m *Monitor) Done() bool { return m.decided == len(m.results) }

// Results returns the per-sample verdicts in sample order. Undecided
// samples (Flush not yet called on an unfinished run) are zero-valued.
func (m *Monitor) Results() []core.SampleResult {
	return append([]core.SampleResult(nil), m.results...)
}

// Stats returns a snapshot of the observability counters.
func (m *Monitor) Stats() Stats {
	s := m.stats
	s.DecidedAt = append([]sim.Time(nil), m.stats.DecidedAt...)
	return s
}

// OnEvent consumes one four-variable event. It is the Trace tap target
// and may be fed directly in tests.
func (m *Monitor) OnEvent(e fourvar.Event) {
	m.stats.Events++
	relevant := (e.Kind == fourvar.Monitored && e.Name == m.req.Stimulus.Signal) ||
		(e.Kind == fourvar.Controlled && e.Name == m.req.Response.Signal)
	if !relevant {
		return
	}
	if len(m.buf) > 0 && e.At > m.bufAt {
		m.flushInstant()
	}
	m.bufAt = e.At
	m.buf = append(m.buf, e)
}

// flushInstant processes the buffered events of one virtual instant:
// m-events first (admitting waiting machines), then c-events in record
// order. Ordering within the instant is what makes the streaming
// verdicts indifferent to same-instant record interleavings, exactly
// like the post-hoc binary searches.
func (m *Monitor) flushInstant() {
	for _, e := range m.buf {
		if e.Kind == fourvar.Monitored {
			m.onStimulus(e)
		}
	}
	for _, e := range m.buf {
		if e.Kind == fourvar.Controlled {
			m.onResponse(e)
		}
	}
	m.buf = m.buf[:0]
}

// onStimulus admits every machine still waiting for its m-event whose
// scripted instant has been reached. Matching is non-consuming: one
// m-event can serve several stimuli, mirroring the post-hoc FirstAt
// search each sample performs independently.
func (m *Monitor) onStimulus(e fourvar.Event) {
	if !m.req.Stimulus.Match.Fn(e.Value) {
		return
	}
	for _, mc := range m.inflight {
		if mc.ph != waitM || mc.at > e.At {
			continue
		}
		mc.ph = waitC
		mc.m = e
		m.armWatchdog(mc)
	}
}

// armWatchdog schedules the deadline decision for one admitted machine:
// one virtual nanosecond past the timeout window, so a response landing
// exactly on the deadline is processed first. Beyond the run horizon the
// watchdog never fires and Flush decides instead.
func (m *Monitor) armWatchdog(mc *machine) {
	if m.k == nil {
		return // detached (test feeding); Flush decides timeouts
	}
	deadline := mc.m.At + m.timeout + 1
	if deadline < m.k.Now() {
		return // admitted from a historical replay; Flush decides
	}
	m.stats.Watchdogs++
	mc.wd = m.k.At(deadline, func() {
		// Events recorded at this same instant sit in the buffer; they
		// are all past the deadline, but cascading them first keeps the
		// consumption order identical to the post-hoc scan.
		m.flushInstant()
		if mc.ph == waitC {
			m.decide(mc, m.maxResult(mc))
		}
	})
}

// onResponse offers a matching c-event to the in-flight machines in
// sample order: machines whose deadline has passed are decided MAX and
// skipped (the response is not theirs to consume — the post-hoc scan
// leaves it unconsumed for the next sample), and the first machine whose
// window contains the response is credited with it.
func (m *Monitor) onResponse(e fourvar.Event) {
	if !m.req.Response.Match.Fn(e.Value) {
		return
	}
	// Snapshot: deciding a machine prunes it from inflight, which must
	// not perturb this pass. Machines decided mid-pass are skipped by
	// their done phase.
	pending := append([]*machine(nil), m.inflight...)
	for _, mc := range pending {
		if mc.ph != waitC {
			// A machine still waiting for its stimulus cannot be
			// credited: the post-hoc c-search starts at its (future)
			// m-event. Machines already decided are gone. In-flight
			// order is sample order, so keep scanning: a later machine
			// admitted by an earlier same-instant m-event may follow.
			continue
		}
		if e.At-mc.m.At > m.timeout {
			m.decide(mc, m.maxResult(mc))
			continue
		}
		s := core.SampleResult{
			Index: mc.idx, StimulusAt: mc.at,
			MEvent: mc.m, MObserved: true,
			CEvent: e, CObserved: true,
			Delay: e.At - mc.m.At,
		}
		if s.Delay <= m.req.Bound {
			s.Verdict = core.Pass
		} else {
			s.Verdict = core.Fail
		}
		m.decide(mc, s)
		return // response consumed
	}
}

// maxResult builds the MAX verdict for a machine in its current phase.
func (m *Monitor) maxResult(mc *machine) core.SampleResult {
	s := core.SampleResult{Index: mc.idx, StimulusAt: mc.at, Verdict: core.Max}
	if mc.ph == waitC {
		s.MEvent = mc.m
		s.MObserved = true
	} else {
		// The stimulus never registered as an m-event; the scripted
		// instant is the reference, as in the post-hoc path.
		s.MEvent = fourvar.Event{Kind: fourvar.Monitored, Name: m.req.Stimulus.Signal, At: mc.at}
	}
	return s
}

// decide records a verdict and prunes the machine.
func (m *Monitor) decide(mc *machine, s core.SampleResult) {
	mc.ph = done
	m.results[mc.idx] = s
	m.decided++
	mc.wd.Cancel() // no-op unless armed and still pending
	mc.wd = sim.Event{}
	for i, cur := range m.inflight {
		if cur == mc {
			m.inflight = append(m.inflight[:i], m.inflight[i+1:]...)
			break
		}
	}
	now := m.bufAt
	if m.k != nil {
		now = m.k.Now()
	}
	m.stats.DecidedAt[mc.idx] = now
}

// Flush ends the stream at virtual instant now: buffered events are
// processed and every still-undecided machine becomes MAX — no further
// event can change its verdict, exactly as the post-hoc scan of the
// finished trace concludes. Call it after the kernel run returns.
func (m *Monitor) Flush(now sim.Time) {
	m.flushInstant()
	for len(m.inflight) > 0 {
		mc := m.inflight[0]
		m.decide(mc, m.maxResult(mc))
	}
	if now > m.bufAt {
		m.bufAt = now
	}
}

// Group aggregates monitors observing one system so early termination
// fires only when every monitored requirement is decided across all
// stimuli.
type Group struct {
	ms []*Monitor
}

// NewGroup builds a group over the given monitors.
func NewGroup(ms ...*Monitor) *Group { return &Group{ms: ms} }

// Attach subscribes every monitor to the system and, when earlyStop is
// set, registers one aggregate stop condition for the whole group.
func (g *Group) Attach(sys *platform.System, earlyStop bool) {
	for _, m := range g.ms {
		m.bind(sys)
	}
	if earlyStop {
		sys.Kernel.StopWhen(g.Done)
	}
}

// Done reports whether every monitor in the group is decided.
func (g *Group) Done() bool {
	for _, m := range g.ms {
		if !m.Done() {
			return false
		}
	}
	return true
}

// Flush ends the stream for every monitor in the group.
func (g *Group) Flush(now sim.Time) {
	for _, m := range g.ms {
		m.Flush(now)
	}
}
