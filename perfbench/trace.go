package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dbi"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/isa"
	"repro/internal/stats"
)

// Layers the tracer attributes host time and simulated cycles to. The
// analysis members get further layers at run time, one per hosted
// analysis ("analysis.<name>.access").
const (
	layerCompile   = iota // workload → isa program
	layerNewSystem        // core.NewSystem, plus any cycles it charges
	layerDBI              // sys.Run minus every span below: engine + instrumentation
	layerSwitch           // Hooks.ContextSwitch: guest switch + provider view switch
	layerFault            // Engine.OnFault: AikidoSD's fault handler
	layerTouch            // Engine.RuntimeTouch: the code cache reading protected pages
	layerEpoch            // one epoch sweep of the re-privatization clock
	layerSyscall          // Hooks.Syscall: the provider's syscall interception
	layerSync             // the synchronization hooks that reach the analyses
	layerThread           // thread start/exit: provider set-up, fork/exit edges
	numFixedLayers
)

var fixedLayerNames = [numFixedLayers]string{
	"setup.compile", "setup.new_system", "dbi", "guest.switch", "sharing.fault",
	"sharing.touch", "sharing.epoch", "prov.syscall", "analysis.sync", "guest.thread",
}

// keepSpans marks the coarse layers whose spans are recorded one by one;
// the rest run into the millions and are only aggregated.
var keepSpans = [numFixedLayers]bool{
	layerCompile: true, layerNewSystem: true, layerDBI: true,
	layerFault: true, layerEpoch: true,
}

// layerTotals aggregates one layer's spans.
type layerTotals struct {
	count  uint64
	selfNS int64  // span durations minus their child spans
	cycles uint64 // simulated cycles charged inside, minus child spans
}

// span is one recorded coarse span.
type span struct {
	name    string
	parent  int // index into tracer.spans, -1 for none
	startNS int64
	durNS   int64
	cycles  uint64
}

// frame is an open span.
type frame struct {
	layer    int
	span     int // index into tracer.spans, -1 when not recorded
	t0       int64
	c0       uint64
	childNS  int64
	childCyc uint64
}

// tracer measures the layers of a traced pass from outside the simulator:
// it wraps the hook fields of an assembled core.System and the analyses,
// timing each call and taking the simulated clock's delta across it. It
// charges no simulated cycles, so a traced cell's results are identical
// to an untraced one's.
type tracer struct {
	base   time.Time
	clock  *stats.Clock // the running cell's clock; nil outside a cell
	stack  []frame
	names  []string
	byName map[string]int
	totals []layerTotals
	spans  []span
	// cellSpan is the recorded span of the running cell, the parent of
	// every coarse span the cell records.
	cellSpan int
}

func newTracer() *tracer {
	tr := &tracer{base: wallNow(), byName: map[string]int{}, cellSpan: -1}
	for _, n := range fixedLayerNames {
		tr.layer(n)
	}
	return tr
}

// wallNow reads the host clock.
func wallNow() time.Time {
	return time.Now() //detlint:ok the benchmark measures host time; no simulated result reads it
}

func (tr *tracer) now() int64 { return int64(wallNow().Sub(tr.base)) }

// layer returns the id of the named layer, adding it if new.
func (tr *tracer) layer(name string) int {
	if id, ok := tr.byName[name]; ok {
		return id
	}
	id := len(tr.names)
	tr.names = append(tr.names, name)
	tr.byName[name] = id
	tr.totals = append(tr.totals, layerTotals{})
	return id
}

func (tr *tracer) cycles() uint64 {
	if tr.clock == nil {
		return 0
	}
	return tr.clock.Cycles()
}

// begin opens a span of layer l.
func (tr *tracer) begin(l int) {
	f := frame{layer: l, span: -1, c0: tr.cycles()}
	if l < numFixedLayers && keepSpans[l] {
		parent := tr.cellSpan
		for i := len(tr.stack) - 1; i >= 0; i-- {
			if tr.stack[i].span >= 0 {
				parent = tr.stack[i].span
				break
			}
		}
		f.span = len(tr.spans)
		tr.spans = append(tr.spans, span{name: tr.names[l], parent: parent})
	}
	f.t0 = tr.now()
	tr.stack = append(tr.stack, f)
}

// end closes the innermost open span.
func (tr *tracer) end() {
	t1 := tr.now()
	f := tr.stack[len(tr.stack)-1]
	tr.stack = tr.stack[:len(tr.stack)-1]
	dur, cyc := t1-f.t0, tr.cycles()-f.c0
	t := &tr.totals[f.layer]
	t.count++
	t.selfNS += dur - f.childNS
	t.cycles += cyc - f.childCyc
	if len(tr.stack) > 0 {
		p := &tr.stack[len(tr.stack)-1]
		p.childNS += dur
		p.childCyc += cyc
	}
	if f.span >= 0 {
		s := &tr.spans[f.span]
		s.startNS, s.durNS, s.cycles = f.t0, dur, cyc
	}
}

// beginCell records a span for one cell; the cell's coarse spans nest
// under it.
func (tr *tracer) beginCell(name string) {
	tr.cellSpan = len(tr.spans)
	tr.spans = append(tr.spans, span{name: name, parent: -1, startNS: tr.now()})
}

// endCell closes the cell span. A panic inside the cell may leave spans
// open; they are discarded.
func (tr *tracer) endCell() {
	s := &tr.spans[tr.cellSpan]
	s.durNS = tr.now() - s.startNS
	if tr.clock != nil {
		s.cycles = tr.clock.Cycles()
	}
	tr.cellSpan, tr.clock, tr.stack = -1, nil, tr.stack[:0]
}

// instrument wraps every hook of an assembled system with a span, and
// points the system's timed analyses at the tracer. It runs between
// core.NewSystem and Run.
func (tr *tracer) instrument(sys *core.System) {
	tr.clock = sys.Clock
	e := sys.Engine
	if f := e.OnFault; f != nil {
		e.OnFault = func(t *guest.Thread, pc isa.PC, in isa.Instr, flt *hypervisor.Fault) dbi.FaultOutcome {
			tr.begin(layerFault)
			o := f(t, pc, in, flt)
			tr.end()
			return o
		}
	}
	if f := e.RuntimeTouch; f != nil {
		e.RuntimeTouch = func(tid guest.TID, addr uint64) {
			tr.begin(layerTouch)
			f(tid, addr)
			tr.end()
		}
	}
	h := &sys.Process.Hooks
	if f := h.ContextSwitch; f != nil {
		h.ContextSwitch = func(old, new guest.TID) {
			tr.begin(layerSwitch)
			f(old, new)
			tr.end()
		}
	}
	if f := h.Syscall; f != nil {
		h.Syscall = func(t *guest.Thread, num int64) {
			tr.begin(layerSyscall)
			f(t, num)
			tr.end()
		}
	}
	syncHook := func(f func(*guest.Thread, int64)) func(*guest.Thread, int64) {
		if f == nil {
			return nil
		}
		return func(t *guest.Thread, id int64) {
			tr.begin(layerSync)
			f(t, id)
			tr.end()
		}
	}
	h.LockAcquired = syncHook(h.LockAcquired)
	h.LockReleased = syncHook(h.LockReleased)
	h.BarrierWait = syncHook(h.BarrierWait)
	h.BarrierRelease = syncHook(h.BarrierRelease)
	if f := h.ThreadJoined; f != nil {
		h.ThreadJoined = func(joiner guest.TID, child *guest.Thread) {
			tr.begin(layerSync)
			f(joiner, child)
			tr.end()
		}
	}
	if f := h.ThreadStarted; f != nil {
		h.ThreadStarted = func(t *guest.Thread, creator guest.TID) {
			tr.begin(layerThread)
			f(t, creator)
			tr.end()
		}
	}
	if f := h.ThreadExited; f != nil {
		h.ThreadExited = func(t *guest.Thread) {
			tr.begin(layerThread)
			f(t)
			tr.end()
		}
	}
	if ec := sys.Epochs; ec != nil {
		// The epoch clock's sweep is not a public hook, but its schedule
		// is: a sweep runs at the first tick check at or after the
		// deadline, and the next deadline is an interval later. The
		// wrapper mirrors that schedule to open a span around exactly the
		// checks that sweep; runCell checks the span count against the
		// clock's own tick count.
		interval := sys.Cfg.Epoch.Interval
		next := interval
		clock := sys.Clock
		sys.SD.SetEpochTicker(func() {
			cy := clock.Cycles()
			if cy < next {
				ec.MaybeTick()
				return
			}
			tr.begin(layerEpoch)
			ec.MaybeTick()
			tr.end()
			if next = cy + interval; next < cy {
				next = ^uint64(0)
			}
		})
	}
	for _, a := range sys.Analyses {
		if ta, ok := a.(*timedAnalysis); ok {
			ta.tr = tr
			ta.layer = tr.layer("analysis." + ta.Name() + ".access")
		}
	}
}

// timedName is the analysis-registry name of the timing wrapper.
const timedName = "perfbench-timed"

func init() {
	analysis.RegisterWrapper(timedName, "fasttrack",
		func(inner analysis.Analysis, _ string, _ analysis.Env) (analysis.Analysis, error) {
			return &timedAnalysis{Analysis: inner}, nil
		})
}

// timedAnalysis times the access hooks of the analysis it wraps. It keeps
// the inner analysis's name, so results are keyed as without it, and it
// charges nothing. The synchronization hooks are timed one level up, at
// the guest hooks.
type timedAnalysis struct {
	analysis.Analysis
	tr    *tracer
	layer int
}

// OnAccess implements analysis.Analysis.
func (a *timedAnalysis) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	a.tr.begin(a.layer)
	a.Analysis.OnAccess(tid, pc, addr, size, write)
	a.tr.end()
}

// OnSharedAccess implements analysis.Analysis.
func (a *timedAnalysis) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	a.tr.begin(a.layer)
	a.Analysis.OnSharedAccess(tid, pc, addr, size, write)
	a.tr.end()
}

// timedNames selects the timing wrapper around each named analysis.
func timedNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = timedName + ":" + n
	}
	return out
}

// writeTrace writes the recorded coarse spans as Chrome trace-event JSON,
// viewable in Perfetto or chrome://tracing. Times are host microseconds
// from the start of the run; each span carries its simulated cycles.
func (tr *tracer) writeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(tr.spans))
	for i, s := range tr.spans {
		events[i] = event{Name: s.name, Ph: "X", Ts: float64(s.startNS) / 1e3,
			Dur: float64(s.durNS) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.parent, "cycles": s.cycles}}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	return os.WriteFile(path, buf, 0o644)
}
