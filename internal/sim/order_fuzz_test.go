package sim

import (
	"cmp"
	"slices"
	"testing"
)

// FuzzKernelOrder checks the kernel's ordering claim over random
// programs. One byte string drives two interpreters: the kernel, through
// its public API, and a reference model written here, which keeps its
// pending events in a slice sorted by (instant, schedule sequence) and
// fires the minimum. Event callbacks read their actions from the byte
// string: At, After, Cancel, Periodic, ticker Stop and SetDrift, kernel
// Stop, and inline advances (AdvanceInline, falling back to After the way
// the RTOS does). The fired (instant, id) sequence, cancel results,
// instant boundaries, counters and the (instant, sequence) keys of the
// events left pending must agree, so every path takes its sequence
// number where the model's schedule does. The heap cost is pinned
// too: the model counts a push per At/After/Periodic, a pop per event
// fired from the queue — a ticker's tick included, re-armed in place — a
// remove per cancellation, and nothing for an inline advance.
func FuzzKernelOrder(f *testing.F) {
	f.Add([]byte{0, 0, 3, 3, 2, 1, 7, 2, 3, 7, 1, 7, 0})
	f.Add([]byte{1, 3, 3, 3, 0, 0, 3, 1, 1, 7, 1, 3, 2, 0, 1, 7, 0, 7, 0, 3, 5, 0, 6, 4, 0, 2, 3})
	f.Add([]byte{0, 2, 2, 0, 5, 1, 3, 2, 0, 7, 3, 3, 7, 4, 6, 2, 2, 1, 3, 3, 5, 1, 1, 7, 3})
	f.Add([]byte{1, 0, 3, 7, 0, 7, 0, 7, 0, 3, 0, 1, 0, 3, 4, 0, 2, 4, 1, 1, 1, 6, 3, 3, 2, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		got := runKernelProgram(data)
		want := runModelProgram(data)
		if !slices.Equal(got.log, want.log) {
			t.Fatalf("fired sequences differ\nkernel: %v\nmodel:  %v", got.log, want.log)
		}
		if got.stats != want.stats {
			t.Fatalf("kernel %+v, model %+v", got.stats, want.stats)
		}
		if !slices.Equal(got.pending, want.pending) {
			t.Fatalf("pending (instant, seq) differ\nkernel: %v\nmodel:  %v", got.pending, want.pending)
		}
	})
}

// Program parameters: instants are whole milliseconds up to the horizon,
// and every ticker period stays at least 200 µs under drift, so a
// program fires a bounded number of events.
const (
	orderHorizon = 20 * ms
	orderRounds  = 4 // Run calls; a Stop ends one early
)

// orderEntry is one logged observation: an event fired from the queue
// ('f'), a tick ('t', n = tick index), an inline advance ('i'), a cancel
// result ('c', n = 1 when it cancelled) or an instant boundary ('b').
type orderEntry struct {
	kind byte
	at   Time
	id   int
	n    uint64
}

// orderStats are the end-of-program counters both interpreters report.
type orderStats struct {
	now                   Time
	fired                 uint64
	pending               int
	pushes, pops, removes uint64
}

// orderKey is a pending event's (instant, schedule sequence) key.
type orderKey struct {
	at  Time
	seq uint64
}

type orderResult struct {
	log     []orderEntry
	stats   orderStats
	pending []orderKey // in sequence order
}

// orderBytes is the shared action stream; past its end it reads zeros,
// which end every action list.
type orderBytes struct {
	data []byte
	pos  int
}

func (p *orderBytes) next() int {
	if p.pos >= len(p.data) {
		return 0
	}
	b := p.data[p.pos]
	p.pos++
	return int(b)
}

func (p *orderBytes) delay() Time { return Time(p.next()%8) * ms }

func (p *orderBytes) period() Time { return Time(p.next()%4+1) * ms }

func (p *orderBytes) drift() int64 { return int64(p.next()%9-4) * 200000 }

// header decodes the program header: whether the rounds use RunBeforeHook
// (with a boundary hook) instead of Run, and the stop-condition modulus
// (0: no stop condition; m: stop after every m-th fired event).
func (p *orderBytes) header() (hook bool, stopEvery uint64) {
	return p.next()%2 == 1, uint64(p.next() % 6)
}

// --- the kernel interpreter --------------------------------------------

type kernelProgram struct {
	k       *Kernel
	p       orderBytes
	log     []orderEntry
	ids     int
	events  []Event
	tickers []*Ticker
}

func runKernelProgram(data []byte) orderResult {
	r := &kernelProgram{k: New(), p: orderBytes{data: data}}
	hook, stopEvery := r.p.header()
	if stopEvery > 0 {
		r.k.StopWhen(func() bool { return r.k.EventsFired()%stopEvery == 0 })
	}
	r.k.At(0, r.event())
	for i := 0; i < orderRounds && r.k.Now() < orderHorizon; i++ {
		if hook {
			r.k.RunBeforeHook(orderHorizon, func() { r.log = append(r.log, orderEntry{'b', r.k.Now(), -1, 0}) })
		} else {
			r.k.Run(orderHorizon)
		}
	}
	push, pop, rm := r.k.QueueOps()
	var pending []orderKey
	for _, ev := range r.k.CaptureEvents() {
		pending = append(pending, orderKey{ev.At, ev.Seq})
	}
	return orderResult{r.log, orderStats{r.k.Now(), r.k.EventsFired(), r.k.Pending(), push, pop, rm}, pending}
}

func (r *kernelProgram) fired(kind byte, id int, n uint64) {
	r.log = append(r.log, orderEntry{kind, r.k.Now(), id, n})
	for c := r.p.next() % 4; c > 0; c-- {
		r.action()
	}
}

// event allocates the next id for a one-shot event and returns its
// callback.
func (r *kernelProgram) event() func() {
	id := r.ids
	r.ids++
	return func() { r.fired('f', id, 0) }
}

func (r *kernelProgram) action() {
	k := r.k
	switch r.p.next() % 8 {
	case 0:
		at := k.Now() + r.p.delay()
		r.events = append(r.events, k.At(at, r.event()))
	case 1:
		d := r.p.delay()
		r.events = append(r.events, k.After(d, r.event()))
	case 2:
		if len(r.events) > 0 {
			i := r.p.next() % len(r.events)
			ok := uint64(0)
			if r.events[i].Cancel() {
				ok = 1
			}
			r.log = append(r.log, orderEntry{'c', k.Now(), i, ok})
		}
	case 3:
		start := k.Now() + r.p.delay()
		period := r.p.period()
		id := r.ids
		r.ids++
		r.tickers = append(r.tickers, k.Periodic(start, period, func(n uint64) { r.fired('t', id, n) }))
	case 4:
		if len(r.tickers) > 0 {
			r.tickers[r.p.next()%len(r.tickers)].Stop()
		}
	case 5:
		if len(r.tickers) > 0 {
			tk := r.tickers[r.p.next()%len(r.tickers)]
			tk.SetDrift(r.p.drift())
		}
	case 6:
		k.Stop()
	case 7:
		d := r.p.delay()
		id := r.ids
		r.ids++
		if k.AdvanceInline(d) {
			r.fired('i', id, 0)
		} else {
			r.events = append(r.events, k.After(d, func() { r.fired('f', id, 0) }))
		}
	}
}

// --- the reference model -----------------------------------------------

// modelEvent is one pending event of the model. tick is the index of the
// ticker whose tick it is, or -1 for a one-shot event.
type modelEvent struct {
	at   Time
	seq  uint64
	id   int
	tick int
}

type modelTicker struct {
	id      int
	period  Time
	drift   int64
	n       uint64
	stopped bool
}

type modelProgram struct {
	p       orderBytes
	log     []orderEntry
	ids     int
	now     Time
	seq     uint64
	pending []modelEvent // sorted by (at, seq)
	events  []int        // one-shot event id per handle
	tickers []*modelTicker

	fired                  uint64
	stopped, hook, looping bool
	until                  Time // last instant the running loop fires at
	stopEvery              uint64
	pushes, pops, removes  uint64
}

func runModelProgram(data []byte) orderResult {
	m := &modelProgram{p: orderBytes{data: data}}
	m.hook, m.stopEvery = m.p.header()
	m.schedule(0, m.newID(), -1)
	m.pushes++
	for i := 0; i < orderRounds && m.now < orderHorizon; i++ {
		m.run()
	}
	var pending []orderKey
	for _, e := range m.pending {
		pending = append(pending, orderKey{e.at, e.seq})
	}
	slices.SortFunc(pending, func(a, b orderKey) int { return cmp.Compare(a.seq, b.seq) })
	return orderResult{m.log, orderStats{m.now, m.fired, len(m.pending), m.pushes, m.pops, m.removes}, pending}
}

func (m *modelProgram) newID() int {
	m.ids++
	return m.ids - 1
}

// schedule inserts an event under the next sequence number, keeping the
// pending slice sorted.
func (m *modelProgram) schedule(at Time, id, tick int) {
	e := modelEvent{at: at, seq: m.seq, id: id, tick: tick}
	m.seq++
	i := len(m.pending)
	for i > 0 && (m.pending[i-1].at > at || (m.pending[i-1].at == at && m.pending[i-1].seq > e.seq)) {
		i--
	}
	m.pending = slices.Insert(m.pending, i, e)
}

// remove drops the pending event matching pred, reporting whether there
// was one.
func (m *modelProgram) remove(pred func(modelEvent) bool) bool {
	for i, e := range m.pending {
		if pred(e) {
			m.pending = slices.Delete(m.pending, i, i+1)
			m.removes++
			return true
		}
	}
	return false
}

func (m *modelProgram) shouldStop() bool {
	return m.stopEvery > 0 && m.fired%m.stopEvery == 0
}

func (m *modelProgram) boundary() {
	if m.hook {
		m.log = append(m.log, orderEntry{'b', m.now, -1, 0})
	}
}

// run is one Run(orderHorizon), or RunBeforeHook(orderHorizon) in hook
// mode: events at the horizon fire under Run only.
func (m *modelProgram) run() {
	m.stopped, m.looping = false, true
	m.until = orderHorizon
	if m.hook {
		m.until = orderHorizon - 1
	}
	for !m.stopped && len(m.pending) > 0 && m.pending[0].at <= m.until {
		if m.pending[0].at > m.now {
			m.boundary()
		}
		m.fireMin()
		if m.shouldStop() {
			m.stopped = true
		}
	}
	m.looping = false
	if !m.stopped {
		m.now = max(m.now, orderHorizon)
		m.boundary()
	}
}

func (m *modelProgram) fireMin() {
	e := m.pending[0]
	m.pending = m.pending[1:]
	m.pops++
	m.now = e.at
	m.fired++
	if e.tick < 0 {
		m.fire('f', e.id, 0)
		return
	}
	t := m.tickers[e.tick]
	n := t.n
	t.n++
	p := t.period
	if t.drift != 0 {
		p += Time(int64(p) / 1e6 * t.drift)
	}
	m.schedule(m.now+p, t.id, e.tick) // re-armed before the callback runs
	m.fire('t', t.id, n)
}

func (m *modelProgram) fire(kind byte, id int, n uint64) {
	m.log = append(m.log, orderEntry{kind, m.now, id, n})
	for c := m.p.next() % 4; c > 0; c-- {
		m.action()
	}
}

func (m *modelProgram) action() {
	switch m.p.next() % 8 {
	case 0, 1: // At(now+d) and After(d) are the same schedule
		at := m.now + m.p.delay()
		id := m.newID()
		m.schedule(at, id, -1)
		m.pushes++
		m.events = append(m.events, id)
	case 2:
		if len(m.events) > 0 {
			i := m.p.next() % len(m.events)
			id := m.events[i]
			ok := uint64(0)
			if m.remove(func(e modelEvent) bool { return e.tick < 0 && e.id == id }) {
				ok = 1
			}
			m.log = append(m.log, orderEntry{'c', m.now, i, ok})
		}
	case 3:
		start := m.now + m.p.delay()
		period := m.p.period()
		m.tickers = append(m.tickers, &modelTicker{id: m.newID(), period: period})
		m.schedule(start, m.tickers[len(m.tickers)-1].id, len(m.tickers)-1)
		m.pushes++
	case 4:
		if len(m.tickers) > 0 {
			i := m.p.next() % len(m.tickers)
			if t := m.tickers[i]; !t.stopped {
				t.stopped = true
				m.remove(func(e modelEvent) bool { return e.tick == i })
			}
		}
	case 5:
		if len(m.tickers) > 0 {
			t := m.tickers[m.p.next()%len(m.tickers)]
			t.drift = m.p.drift()
		}
	case 6:
		m.stopped = true
	case 7:
		d := m.p.delay()
		id := m.newID()
		at := m.now + d
		if m.looping && !m.stopped && at <= m.until &&
			(len(m.pending) == 0 || m.pending[0].at > at) && !m.shouldStop() {
			if at > m.now {
				m.boundary()
			}
			m.seq++
			m.now = at
			m.fired++
			m.fire('i', id, 0)
			return
		}
		m.schedule(at, id, -1)
		m.pushes++
		m.events = append(m.events, id)
	}
}
