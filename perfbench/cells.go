package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/atomicity"
	"repro/internal/commgraph"
	"repro/internal/core"
	"repro/internal/fasttrack"
	"repro/internal/isa"
	"repro/internal/lockset"
	"repro/internal/sharing"
)

// The three cells every program runs as.
const (
	cellNative = iota
	cellFull
	cellAikido
	numCells
)

var cellNames = [numCells]string{"native", "FastTrack-full", "Aikido-FastTrack"}

var cellModes = [numCells]core.Mode{core.ModeNative, core.ModeFastTrackFull, core.ModeAikidoFastTrack}

// config is the core configuration of one cell. A traced cell hosts the
// same analyses, each under the timing wrapper.
func (w benchWorkload) config(kind int, traced bool) core.Config {
	cfg := core.DefaultConfig(cellModes[kind])
	if kind == cellNative {
		return cfg
	}
	names := w.analyses
	if traced {
		names = timedNames(names)
	}
	cfg = cfg.WithAnalyses(names...)
	if kind == cellAikido && w.epoch {
		cfg.Epoch = sharing.DefaultEpochPolicy()
	}
	return cfg
}

// cellResult is one cell's outcome.
type cellResult struct {
	res     *core.Result
	err     error
	setupNS int64 // core.NewSystem
	runNS   int64 // (*core.System).Run
	// speed converts the cell's host times to reference-host times: the
	// calibration kernel's reference time over its mean time just before
	// and just after the cell (see calib.go).
	speed float64
}

// programResult is one program's three cells in one pass.
type programResult struct {
	prog      program
	compileNS int64
	cells     [numCells]cellResult
}

// passResult is one pass over a workload: every program, every cell, run
// in sequence on the calling goroutine.
type passResult struct {
	programs []programResult
	mallocs  uint64
	tr       *tracer // nil for an untraced pass
}

// cellPanic is a panic recovered from a cell, reported as the cell's error.
type cellPanic struct{ value any }

func (p *cellPanic) Error() string { return fmt.Sprintf("panic: %v", p.value) }

// runPass runs every cell of the workload once. With a tracer, every cell
// is traced. Heap allocations are counted around the compile steps and
// cells only, not the calibration kernel between them.
func runPass(w benchWorkload, progs []program, tr *tracer) passResult {
	runtime.GC()
	pr := passResult{programs: make([]programResult, len(progs)), tr: tr}
	var cals []int64 // calibration times, one before each cell and one after the last
	for i, p := range progs {
		out := &pr.programs[i]
		out.prog = p
		cals = append(cals, calibrate())
		m0 := mallocs()
		if tr != nil {
			tr.begin(layerCompile)
		}
		c0 := wallNow()
		prog, err := p.src.Compile()
		out.compileNS = int64(wallNow().Sub(c0))
		if tr != nil {
			tr.end()
		}
		for kind := 0; kind < numCells; kind++ {
			if kind > 0 {
				pr.mallocs += mallocs() - m0
				cals = append(cals, calibrate())
				m0 = mallocs()
			}
			if err != nil {
				out.cells[kind].err = fmt.Errorf("compile: %w", err)
				continue
			}
			out.cells[kind] = runCell(w.config(kind, tr != nil), prog, tr, p.name+"/"+cellNames[kind])
		}
		pr.mallocs += mallocs() - m0
	}
	cals = append(cals, calibrate())
	for i := range pr.programs {
		for k := range pr.programs[i].cells {
			j := i*numCells + k
			pr.programs[i].cells[k].speed = calibRefNS / (float64(cals[j]+cals[j+1]) / 2)
		}
	}
	return pr
}

// mallocs is the number of heap allocations the process has made.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// hostNS is the pass's host time in reference-host nanoseconds: each
// program's compile time and each cell's set-up and run time, scaled by
// the speed measured around its cell. The flags pick the parts to sum.
func (p passResult) hostNS(compile, setup, run bool) float64 {
	var ns float64
	for _, pr := range p.programs {
		if compile {
			ns += float64(pr.compileNS) * pr.cells[0].speed
		}
		for _, c := range pr.cells {
			if setup {
				ns += float64(c.setupNS) * c.speed
			}
			if run {
				ns += float64(c.runNS) * c.speed
			}
		}
	}
	return ns
}

// speed is the pass's mean speed factor, weighted by host time: it
// converts the pass's raw host times to reference-host times.
func (p passResult) speed() float64 {
	var raw int64
	for _, pr := range p.programs {
		raw += pr.compileNS
		for _, c := range pr.cells {
			raw += c.setupNS + c.runNS
		}
	}
	return p.hostNS(true, true, true) / float64(raw)
}

// runCell assembles and runs one cell. Under a tracer it also checks the
// tracer's accounting: the cycles attributed to the cell's layers must
// sum to Result.Cycles, and the epoch spans must match the epoch ticks.
func runCell(cfg core.Config, prog *isa.Program, tr *tracer, label string) (c cellResult) {
	var cyc0, epochs0 uint64
	if tr != nil {
		tr.beginCell(label)
		defer tr.endCell()
		cyc0, epochs0 = tr.cycleTotal(), tr.totals[layerEpoch].count
	}
	defer func() {
		if r := recover(); r != nil {
			c.res, c.err = nil, &cellPanic{value: r}
		}
	}()
	if tr != nil {
		tr.begin(layerNewSystem)
	}
	t0 := wallNow()
	sys, err := core.NewSystem(prog, cfg)
	t1 := wallNow()
	c.setupNS = int64(t1.Sub(t0))
	if tr != nil {
		tr.end()
	}
	if err != nil {
		c.err = fmt.Errorf("new system: %w", err)
		return c
	}
	if tr != nil {
		// Cycles charged while assembling the system.
		tr.totals[layerNewSystem].cycles += sys.Clock.Cycles()
		tr.instrument(sys)
		tr.begin(layerDBI)
	}
	t2 := wallNow()
	res, err := sys.Run()
	c.runNS = int64(wallNow().Sub(t2))
	if tr != nil {
		tr.end()
	}
	if err != nil {
		c.err = fmt.Errorf("run: %w", err)
		return c
	}
	c.res = res
	if tr != nil {
		if got := tr.cycleTotal() - cyc0; got != res.Cycles {
			c.err = fmt.Errorf("cycle ledger: layers sum to %d cycles, Result.Cycles is %d", got, res.Cycles)
		} else if got := tr.totals[layerEpoch].count - epochs0; got != res.EpochTicks {
			c.err = fmt.Errorf("epoch spans: traced %d sweeps, the epoch clock ticked %d times", got, res.EpochTicks)
		}
	}
	return c
}

// cycleTotal sums the simulated cycles attributed to every layer.
func (tr *tracer) cycleTotal() uint64 {
	var n uint64
	for _, t := range tr.totals {
		n += t.cycles
	}
	return n
}

// checkProgram is the findings oracle for one program's cells. A cell
// fails when it errored, when the guest exited nonzero, or — for the
// Aikido cell — when any hosted analysis found something different from
// what it found with every access instrumented (FastTrack-full).
func checkProgram(pr *programResult) [numCells]error {
	var errs [numCells]error
	for kind, c := range pr.cells {
		switch {
		case c.err != nil:
			errs[kind] = c.err
		case c.res.ExitCode != 0:
			errs[kind] = fmt.Errorf("guest exit code %d", c.res.ExitCode)
		}
	}
	if errs[cellFull] == nil && errs[cellAikido] == nil {
		errs[cellAikido] = sameFindings(pr.cells[cellFull].res, pr.cells[cellAikido].res)
	}
	return errs
}

// sameFindings compares two runs' findings analysis by analysis.
func sameFindings(want, got *core.Result) error {
	names := want.AnalysisNames()
	if g := got.AnalysisNames(); strings.Join(g, ",") != strings.Join(names, ",") {
		return fmt.Errorf("analyses %v, want %v", g, names)
	}
	if len(names) == 0 {
		return fmt.Errorf("no analysis ran")
	}
	for _, name := range names {
		w, g := findingKeys(want.Findings[name]), findingKeys(got.Findings[name])
		if strings.Join(w, "\n") != strings.Join(g, "\n") {
			return fmt.Errorf("%s: %d findings, FastTrack-full has %d (first difference %q)",
				name, len(g), len(w), firstDifference(w, g))
		}
	}
	return nil
}

// findingKeys reduces findings to the sorted set that must agree between
// full instrumentation and Aikido: FastTrack's whole races; the address
// and PC of lockset and atomicity findings, without the reporting thread
// (lockset can report one address and PC from a different thread); and
// the communicating thread pairs of the communication graph.
func findingKeys(f analysis.Findings) []string {
	var keys []string
	switch v := analysis.Unwrap(f).(type) {
	case *fasttrack.Findings:
		for _, r := range v.Races {
			keys = append(keys, r.String())
		}
	case *lockset.Findings:
		for _, w := range v.Warnings {
			keys = append(keys, fmt.Sprintf("%#x pc %d", w.Addr, w.PC))
		}
	case *atomicity.Findings:
		for _, x := range v.Violations {
			keys = append(keys, fmt.Sprintf("%#x pc %d", x.Addr, x.PC))
		}
	case *commgraph.Findings:
		for _, e := range v.Edges {
			keys = append(keys, e.Edge.String())
		}
	default:
		keys = f.Strings()
	}
	sort.Strings(keys)
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			out = append(out, k)
		}
	}
	return out
}

// firstDifference names the first key in one sorted set but not the other.
func firstDifference(a, b []string) string {
	in := func(s []string, k string) bool {
		i := sort.SearchStrings(s, k)
		return i < len(s) && s[i] == k
	}
	for _, k := range a {
		if !in(b, k) {
			return "missing " + k
		}
	}
	for _, k := range b {
		if !in(a, k) {
			return "extra " + k
		}
	}
	return ""
}

// fingerprint renders every simulated result of a run — cycles, counters
// and findings — so runs can be compared byte for byte.
func fingerprint(r *core.Result) string {
	c := *r
	c.Findings, c.Static = nil, nil
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", c)
	for _, name := range r.AnalysisNames() {
		f := r.Findings[name]
		fmt.Fprintf(&b, "%s: %s\n", name, f.Summary())
		for _, s := range f.Strings() {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
