package main

import (
	"math"
	"sort"

	"repro/internal/core"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were added, for printing.
type metricSet struct {
	names  []string
	values map[string]metric
}

func (m *metricSet) add(name, unit string, v float64) {
	if m.values == nil {
		m.values = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.names = append(m.names, name)
	m.values[name] = metric{Value: v, Unit: unit}
}

// passMetrics are the end-to-end figures of one untraced pass, host times
// in reference-host units (see calib.go).
type passMetrics struct {
	wallS, setupS   float64
	minstrPerS      float64 // guest instructions over host time in Run
	allocsPerKinstr float64
	slowdown        float64 // geomean Aikido/native cycles
	speedup         float64 // geomean full/Aikido cycles
	fig6ErrPP       float64 // -1 without a paper reference
	nativeMinstrS   float64 // native cells only
}

func endToEnd(p passResult) passMetrics {
	var nativeNS float64
	var instr, nativeInstr uint64
	var logSlow, logSpeed, errPP float64
	var n, nRef int
	for _, pr := range p.programs {
		for kind, c := range pr.cells {
			if c.res == nil {
				continue
			}
			instr += c.res.Engine.Instructions
			if kind == cellNative {
				nativeInstr += c.res.Engine.Instructions
				nativeNS += float64(c.runNS) * c.speed
			}
		}
		nat, full, aik := pr.cells[cellNative].res, pr.cells[cellFull].res, pr.cells[cellAikido].res
		if nat == nil || full == nil || aik == nil {
			continue
		}
		logSlow += math.Log(aik.Slowdown(nat))
		logSpeed += math.Log(full.Slowdown(aik))
		n++
		if pr.prog.paperShared >= 0 {
			errPP += 100 * math.Abs(aik.SharedAccessFraction()-pr.prog.paperShared)
			nRef++
		}
	}
	m := passMetrics{
		wallS:           p.hostNS(true, true, true) / 1e9,
		setupS:          p.hostNS(true, true, false) / 1e9,
		minstrPerS:      float64(instr) / p.hostNS(false, false, true) * 1e3,
		allocsPerKinstr: float64(p.mallocs) / (float64(instr) / 1e3),
		nativeMinstrS:   float64(nativeInstr) / nativeNS * 1e3,
		fig6ErrPP:       -1,
	}
	if n > 0 {
		m.slowdown = math.Exp(logSlow / float64(n))
		m.speedup = math.Exp(logSpeed / float64(n))
	}
	if nRef > 0 {
		m.fig6ErrPP = errPP / float64(nRef)
	}
	return m
}

// median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return median(v)
}

// tracedTimes is what a run keeps of a traced pass once it is checked:
// its host times in reference-host units.
type tracedTimes struct {
	hostNS float64
	selfS  map[string]float64 // by layer name
}

func timesOf(p passResult) tracedTimes {
	t := tracedTimes{hostNS: p.hostNS(true, true, true), selfS: map[string]float64{}}
	speed := p.speed()
	for id, name := range p.tr.names {
		t.selfS[name] = float64(p.tr.totals[id].selfNS) * speed / 1e9
	}
	return t
}

// perLayer computes the per-layer metrics of a traced run: work counts
// and cycles from the first traced pass (they are identical in every
// pass), host times as medians over the traced passes in reference-host
// units.
func perLayer(first passResult, traced []tracedTimes, untraced []passMetrics) metricSet {
	var m metricSet
	self := func(layer int) float64 {
		return medianOf(traced, func(t tracedTimes) float64 { return t.selfS[first.tr.names[layer]] })
	}
	cycles := func(layer int) float64 { return float64(first.tr.totals[layer].cycles) }
	count := func(layer int) float64 { return float64(first.tr.totals[layer].count) }

	// Counters summed over the cells of one pass; sel picks the cells.
	sum := func(sel func(kind int) bool, f func(r *core.Result) uint64) float64 {
		var n uint64
		for _, pr := range first.programs {
			for kind, c := range pr.cells {
				if c.res != nil && sel(kind) {
					n += f(c.res)
				}
			}
		}
		return float64(n)
	}
	all := func(int) bool { return true }
	aik := func(kind int) bool { return kind == cellAikido }
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m.add("dbi.self_s", "s", self(layerDBI))
	m.add("dbi.self_cycles", "cycles", cycles(layerDBI))
	m.add("dbi.native_minstr_per_s", "Minstr/s",
		medianOf(untraced, func(p passMetrics) float64 { return p.nativeMinstrS }))
	m.add("dbi.instructions", "count", sum(all, func(r *core.Result) uint64 { return r.Engine.Instructions }))
	m.add("dbi.blocks_built", "count", sum(all, func(r *core.Result) uint64 { return r.Engine.BlocksBuilt }))
	m.add("dbi.blocks_flushed", "count", sum(all, func(r *core.Result) uint64 { return r.Engine.BlocksFlushed }))
	memRefs := sum(aik, func(r *core.Result) uint64 { return r.Engine.MemRefs })
	instrumented := sum(aik, func(r *core.Result) uint64 { return r.Engine.InstrumentedExecs })
	shared := sum(aik, func(r *core.Result) uint64 { return r.SD.SharedPageAccesses })
	m.add("dbi.instrumented_frac", "ratio", frac(instrumented, memRefs))

	m.add("guest.context_switches", "count", count(layerSwitch))
	m.add("guest.switch_s", "s", self(layerSwitch))
	m.add("guest.switch_cycles", "cycles", cycles(layerSwitch))
	m.add("guest.thread_s", "s", self(layerThread))
	m.add("guest.thread_cycles", "cycles", cycles(layerThread))

	m.add("sharing.faults", "count", count(layerFault))
	m.add("sharing.fault_s", "s", self(layerFault))
	m.add("sharing.fault_cycles", "cycles", cycles(layerFault))
	m.add("sharing.touch_s", "s", self(layerTouch))
	m.add("sharing.touch_cycles", "cycles", cycles(layerTouch))
	m.add("sharing.epoch_sweeps", "count", count(layerEpoch))
	m.add("sharing.epoch_s", "s", self(layerEpoch))
	m.add("sharing.epoch_cycles", "cycles", cycles(layerEpoch))
	m.add("sharing.shared_access_frac", "ratio", frac(shared, memRefs))
	m.add("sharing.check_hit_frac", "ratio", frac(shared, instrumented))
	m.add("sharing.demotions", "count", sum(aik, func(r *core.Result) uint64 {
		return r.SD.PagesDemotedPrivate + r.SD.PagesDemotedUnused
	}))
	m.add("sharing.reshared", "count", sum(aik, func(r *core.Result) uint64 { return r.SD.PagesReshared }))

	m.add("hv.hypercalls", "count", sum(aik, func(r *core.Result) uint64 { return r.HV.Hypercalls }))
	fills := sum(aik, func(r *core.Result) uint64 { return r.HV.ShadowFills })
	hits := sum(aik, func(r *core.Result) uint64 { return r.HV.TLBHits })
	m.add("hv.shadow_fills", "count", fills)
	m.add("hv.tlb_hit_frac", "ratio", frac(hits, hits+fills))
	m.add("prov.prot_ops", "count", sum(aik, func(r *core.Result) uint64 { return r.Prov.ProtOps }))
	m.add("prov.range_ops", "count", sum(aik, func(r *core.Result) uint64 { return r.Prov.RangeOps }))
	m.add("prov.kernel_bypasses", "count", sum(aik, func(r *core.Result) uint64 { return r.Prov.KernelBypasses }))
	m.add("prov.syscall_s", "s", self(layerSyscall))
	m.add("prov.syscall_cycles", "cycles", cycles(layerSyscall))

	inline := sum(all, func(r *core.Result) uint64 { return r.Umbra.InlineHits })
	global := sum(all, func(r *core.Result) uint64 { return r.Umbra.GlobalLookups })
	m.add("umbra.inline_hit_frac", "ratio", frac(inline, inline+global))
	m.add("umbra.global_lookups", "count", global)

	var accessS, accessCycles, accessEvents float64
	for _, name := range muxAnalyses {
		id, ok := first.tr.byName["analysis."+name+".access"]
		if !ok {
			m.add("analysis."+name+".access_s", "s", 0)
			continue
		}
		s := self(id)
		m.add("analysis."+name+".access_s", "s", s)
		accessS += s
		accessCycles += cycles(id)
		accessEvents += count(id)
	}
	m.add("analysis.access_s", "s", accessS)
	m.add("analysis.access_cycles", "cycles", accessCycles)
	m.add("analysis.access_events", "count", accessEvents)
	m.add("analysis.sync_s", "s", self(layerSync))
	m.add("analysis.sync_cycles", "cycles", cycles(layerSync))
	m.add("analysis.sync_events", "count", count(layerSync))
	m.add("analysis.findings", "count", sum(all, func(r *core.Result) uint64 { return uint64(r.TotalFindings()) }))

	m.add("setup.compile_s", "s", self(layerCompile))
	m.add("setup.new_system_s", "s", self(layerNewSystem))
	m.add("setup.new_system_cycles", "cycles", cycles(layerNewSystem))
	m.add("sim.cycles", "cycles", sum(all, func(r *core.Result) uint64 { return r.Cycles }))

	m.add("trace.overhead_x", "x",
		medianOf(traced, func(t tracedTimes) float64 { return t.hostNS })/
			medianOf(untraced, func(p passMetrics) float64 { return p.wallS * 1e9 }))
	return m
}
