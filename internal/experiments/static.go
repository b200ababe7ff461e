package experiments

// The BENCH_10 experiment: the static privacy pre-pass
// (internal/staticanalysis). Every dynamic refinement so far reorders
// WHEN classification work happens; the static pass removes work that
// never needed to happen at all — PCs proven unable to touch shared
// memory skip instrumentation, and statically single-owner pages are
// pre-seeded Private(owner), trading the first-touch fault (Fault) for
// one grant hypercall (Hypercall). The win is startup-shaped: it
// amortizes over thread creation and first touches, not steady-state
// iterations, so the suite pairs the PARSEC guard rail with deliberately
// startup-dominated private workloads. Findings must be identical in
// every row — the pass prunes instrumentation only where no analysis
// could ever observe an event.

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/parsec"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

// staticSuite is the startup-dominated private workload matrix appended
// to the PARSEC models: many threads, few iterations, private pages and
// barriers — the regime where first-touch faults and thread-spawn
// bookkeeping dominate and the pre-pass has real work to remove.
func staticSuite(o Options) []workload.Spec {
	iters := func(n int) int {
		v := int(float64(n) * o.Scale)
		if v < 1 {
			v = 1
		}
		return v
	}
	// BarrierPeriod is 1 wherever barriers appear: a barrier arrival is
	// what touches the statically pre-seeded stack page, and it must still
	// fire when -scale shrinks Iters to 1 — otherwise the pre-seed grant
	// is a wasted hypercall and the row measures noise, not the trade.
	return []workload.Spec{
		{Name: "startup-priv", Threads: 8, Iters: iters(4),
			PrivateOps: 4, PrivatePages: 2, BarrierPeriod: 1},
		{Name: "spawn-burst", Threads: 16, Iters: iters(2),
			PrivateOps: 2, PrivatePages: 1, AluOps: 2},
		{Name: "priv-wide", Threads: 8, Iters: iters(6),
			PrivateOps: 6, PrivatePages: 4, AluOps: 2, BarrierPeriod: 1},
	}
}

// StaticRow is one workload's measurement pair: the same Aikido
// FastTrack cell with the pre-pass off (pure dynamic classification) and
// on.
type StaticRow struct {
	Name string `json:"name"`
	// DynamicCycles pays a fault per first touch and instruments every
	// PC that ever faults on a shared page; StaticCycles skips both where
	// the pass found a proof. Their ratio is the modeled startup win.
	DynamicCycles uint64  `json:"dynamic_cycles"`
	StaticCycles  uint64  `json:"static_cycles"`
	CycleSpeedup  float64 `json:"cycle_speedup_x"`
	// PrunedPCs / PreSeededPages are the proofs the pass delivered;
	// Tripwires counts runtime refutations (must be 0 — the pass is
	// sound) and Fallback records a degraded pass ("" when it applied).
	PrunedPCs      uint64 `json:"pruned_pcs"`
	PreSeededPages uint64 `json:"preseeded_pages"`
	Tripwires      uint64 `json:"tripwires"`
	Fallback       string `json:"fallback,omitempty"`
	// FindingsIdentical reports whether every analysis rendered the same
	// findings in both runs — the soundness contract, checked per row.
	FindingsIdentical bool `json:"findings_identical"`
	// Wall-clock per cell (zeroed by -deterministic).
	DynamicWallNS int64 `json:"dynamic_wall_ns"`
	StaticWallNS  int64 `json:"static_wall_ns"`
}

// StaticAmortization measures, per workload, what the static privacy
// pre-pass saves over pure dynamic classification. Both cells run the
// default Aikido FastTrack stack under stats.DefaultCosts — the pass
// needs no special cost model, it removes Fault and InstrumentedExec
// charges that the baseline genuinely pays. The PARSEC rows are the
// guard rail (steady-state sharing; the pass may only pre-seed the main
// thread's bookkeeping pages, never regress); the staticSuite rows are
// the headline. This is BENCH_10.json.
func StaticAmortization(o Options) ([]StaticRow, error) {
	o = o.normalize()
	dynCfg := core.DefaultConfig(core.ModeAikidoFastTrack)
	stCfg := dynCfg
	stCfg.Static = true

	units := o.staticUnits()
	var specs []runner.Spec
	for _, u := range units {
		specs = append(specs,
			u.spec("dynamic", dynCfg),
			u.spec("static", stCfg))
	}
	cells, err := o.sweep(specs)
	if err != nil {
		return nil, err
	}
	var rows []StaticRow
	for i, u := range units {
		dyn, st := cells[2*i].Res, cells[2*i+1].Res
		row := StaticRow{
			Name:              u.name,
			DynamicCycles:     dyn.Cycles,
			StaticCycles:      st.Cycles,
			CycleSpeedup:      stats.Ratio(dyn.Cycles, st.Cycles),
			PrunedPCs:         st.SD.PCsStaticallyPruned,
			PreSeededPages:    st.SD.PagesPreSeeded,
			Tripwires:         st.SD.StaticTripwires,
			Fallback:          st.StaticFallback,
			FindingsIdentical: findingsIdentical(dyn, st),
			DynamicWallNS:     cells[2*i].Wall.Nanoseconds(),
			StaticWallNS:      cells[2*i+1].Wall.Nanoseconds(),
		}
		if o.Deterministic {
			row.DynamicWallNS, row.StaticWallNS = 0, 0
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// amortUnit is one row of the static amortization matrix: a named
// workload that can mint runner cells for any config — either a PARSEC
// benchmark model or a generated workload source.
type amortUnit struct {
	name string
	spec func(label string, cfg core.Config) runner.Spec
}

// staticUnits is the BENCH_10 workload set: every PARSEC model plus the
// startup-dominated private suite.
func (o Options) staticUnits() []amortUnit {
	var units []amortUnit
	for _, b := range parsec.All() {
		bb := o.apply(b)
		units = append(units, amortUnit{name: b.Name,
			spec: func(label string, cfg core.Config) runner.Spec {
				return cell(bb, label, cfg)
			}})
	}
	for _, s := range staticSuite(o) {
		s := s
		units = append(units, amortUnit{name: s.Name,
			spec: func(label string, cfg core.Config) runner.Spec {
				return runner.Spec{Label: s.Name + "/" + label, Workload: s, Config: cfg}
			}})
	}
	return units
}

// WriteStaticAmortization renders the static pre-pass table.
func WriteStaticAmortization(w io.Writer, rows []StaticRow) {
	fmt.Fprintln(w, "Static privacy pre-pass: dynamic classification vs CFG + abstract")
	fmt.Fprintln(w, "interpretation pruning (Aikido FastTrack, default cost model;")
	fmt.Fprintln(w, "findings must match and tripwires must be 0 in every row)")
	fmt.Fprintf(w, "%-15s %16s %16s %9s %8s %9s %6s %9s\n",
		"workload", "dynamic cycles", "static cycles", "speedup", "pruned", "preseeded", "trips", "findings")
	var speedups []float64
	for _, r := range rows {
		verdict := "match"
		if !r.FindingsIdentical {
			verdict = "DIVERGE"
		}
		if r.Fallback != "" {
			verdict = "FALLBACK"
		}
		fmt.Fprintf(w, "%-15s %16d %16d %8.2fx %8d %9d %6d %9s\n",
			r.Name, r.DynamicCycles, r.StaticCycles, r.CycleSpeedup,
			r.PrunedPCs, r.PreSeededPages, r.Tripwires, verdict)
		speedups = append(speedups, r.CycleSpeedup)
	}
	fmt.Fprintf(w, "geomean cycle speedup: %.2fx (proofs replace first-touch faults and pruned instrumentation)\n",
		stats.Geomean(speedups))
}

// StaticReport is the BENCH_10.json document: the static pre-pass
// snapshot over the dynamic Aikido baseline.
type StaticReport struct {
	Schema string  `json:"schema"` // "aikido-static-bench/v1"
	Scale  float64 `json:"scale"`
	// Costs records the two sides of the pre-seed trade under the default
	// model: each pre-seeded page saves one Fault and pays one Hypercall,
	// and each pruned PC's accesses skip InstrumentedExec.
	Costs struct {
		Fault            uint64 `json:"fault"`
		Hypercall        uint64 `json:"hypercall"`
		InstrumentedExec uint64 `json:"instrumented_exec"`
	} `json:"costs"`
	Geomean           float64     `json:"geomean_cycle_speedup_x"`
	FindingsIdentical bool        `json:"findings_identical"`
	Tripwires         uint64      `json:"tripwires"`
	Rows              []StaticRow `json:"rows"`
}

// StaticJSON runs the static pre-pass experiment and packages it as a
// machine-readable report.
func StaticJSON(o Options) (*StaticReport, error) {
	rows, err := StaticAmortization(o)
	if err != nil {
		return nil, err
	}
	o = o.normalize()
	rep := &StaticReport{Schema: "aikido-static-bench/v1", Scale: o.Scale, Rows: rows}
	costs := stats.DefaultCosts()
	rep.Costs.Fault = costs.Fault
	rep.Costs.Hypercall = costs.Hypercall
	rep.Costs.InstrumentedExec = costs.InstrumentedExec
	rep.FindingsIdentical = true
	var speedups []float64
	for _, r := range rows {
		speedups = append(speedups, r.CycleSpeedup)
		rep.FindingsIdentical = rep.FindingsIdentical && r.FindingsIdentical
		rep.Tripwires += r.Tripwires
	}
	rep.Geomean = stats.Geomean(speedups)
	return rep, nil
}

// WriteStaticJSON renders the report as indented JSON.
func WriteStaticJSON(w io.Writer, rep *StaticReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
