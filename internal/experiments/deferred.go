package experiments

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

// DeferredRow is one workload's dispatch-amortization measurement: the
// same analysis-heavy cell (full instrumentation hosting the four-way
// analysis mux, so every memory access crosses into every analysis) run
// with per-access inline dispatch and with deferred per-thread rings,
// both under the transition-cost model (stats.DispatchCosts).
type DeferredRow struct {
	Name     string   `json:"name"`
	Analyses []string `json:"analyses"`
	// InlineCycles pays one AnalysisDispatch transition per access per
	// analysis; DeferredCycles pays one BatchDrainBase per analysis per
	// drain plus a BatchPerRecord hand-off per record per analysis.
	InlineCycles   uint64 `json:"inline_cycles"`
	DeferredCycles uint64 `json:"deferred_cycles"`
	// CycleSpeedup is InlineCycles / DeferredCycles (>1 = batching wins).
	CycleSpeedup float64 `json:"cycle_speedup_x"`
	// Drains and Records describe the deferred run's pipeline: how many
	// batches replayed and how many access records they carried.
	Drains  uint64 `json:"drains"`
	Records uint64 `json:"records"`
	// RecordsPerDrain is the realized batch size the amortization rides.
	RecordsPerDrain float64 `json:"records_per_drain"`
	// FindingsIdentical reports whether every analysis rendered the same
	// findings and work counters in both runs — the correctness half of
	// the claim (deferral reorders when analysis work happens, never what
	// it observes).
	FindingsIdentical bool `json:"findings_identical"`
	// Wall-clock per cell (zeroed by -deterministic).
	InlineWallNS   int64 `json:"inline_wall_ns"`
	DeferredWallNS int64 `json:"deferred_wall_ns"`
}

// deferredAnalysisSet is the hosted-analysis set the amortization cells
// multiplex — the same four-way set the mux experiment uses, so the two
// snapshots measure the same stack from different angles (mux: guest
// executions amortized; deferred: dispatch transitions amortized).
var deferredAnalysisSet = []string{"fasttrack", "lockset", "atomicity", "commgraph"}

// zipfSuite is the Zipf-skewed sharing matrix the dispatch amortization
// experiments append to the PARSEC models: the same false-sharing slot
// layout at two points on the skew dial. The uniform row (skew 0) spreads
// accesses evenly over the pages; the hot row (skew 1.2) concentrates
// roughly half of all accesses onto one page — a long-run stress for the
// vectorized kernels' group cutting.
func zipfSuite(o Options) []epochCase {
	iters := func(n int) int {
		v := int(float64(n) * o.Scale)
		if v < 1 {
			v = 1
		}
		return v
	}
	z := func(name string, skew float64) workload.ZipfSpec {
		return workload.ZipfSpec{
			Name: name, Threads: 8, Iters: iters(300), Pages: 16,
			OpsPerIter: 8, AluOps: 4, Skew: skew,
		}
	}
	return []epochCase{
		{"zipf-uniform", z("zipf-uniform", 0)},
		{"zipf-hot", z("zipf-hot", 1.2)},
	}
}

// amortUnit is one row of a dispatch-amortization matrix: a named
// workload that can mint runner cells for any config — either a PARSEC
// benchmark model or a generated workload source.
type amortUnit struct {
	name string
	spec func(label string, cfg core.Config) runner.Spec
}

// amortUnits is the workload set the deferred, vector and phase
// amortization experiments share: every PARSEC model plus the Zipf-skew
// pair, so each snapshot carries both the paper's models and the
// page-locality extremes the dispatch machinery is sensitive to.
func (o Options) amortUnits() []amortUnit {
	var units []amortUnit
	for _, b := range parsec.All() {
		bb := o.apply(b)
		units = append(units, amortUnit{name: b.Name,
			spec: func(label string, cfg core.Config) runner.Spec {
				return cell(bb, label, cfg)
			}})
	}
	for _, z := range zipfSuite(o) {
		units = append(units, amortUnit{name: z.name,
			spec: func(label string, cfg core.Config) runner.Spec {
				return runner.Spec{Label: z.name + "/" + label, Source: z.src, Config: cfg}
			}})
	}
	return units
}

// DeferredAmortization measures, per benchmark model, what batched
// dispatch saves on analysis-heavy cells. Inline dispatch pays the
// clean-call transition (save state, enter the analysis runtime, pollute
// both caches) on every access for every hosted analysis; the deferred
// pipeline banks accesses in per-thread rings and pays one transition per
// analysis per drain plus a small per-record hand-off per analysis. Both cells run
// under stats.DispatchCosts — the default model keeps the transition
// terms at 0 (where deferred dispatch is byte-identical to inline, as CI
// pins), so the experiment turns them on explicitly to measure what they
// cost and what batching recovers. This is the deferred pipeline's
// headline number and the BENCH_5.json snapshot.
func DeferredAmortization(o Options) ([]DeferredRow, error) {
	o = o.normalize()
	units := o.amortUnits()
	inline := core.DefaultConfig(core.ModeFastTrackFull).WithAnalyses(deferredAnalysisSet...)
	inline.Costs = stats.DispatchCosts()
	deferred := inline
	deferred.Dispatch = core.DispatchDeferred
	var specs []runner.Spec
	for _, u := range units {
		specs = append(specs,
			u.spec("inline", inline),
			u.spec("deferred", deferred))
	}
	cells, err := o.sweep(specs)
	if err != nil {
		return nil, err
	}
	var rows []DeferredRow
	for i, u := range units {
		in, de := cells[2*i].Res, cells[2*i+1].Res
		row := DeferredRow{
			Name:              u.name,
			Analyses:          deferredAnalysisSet,
			InlineCycles:      in.Cycles,
			DeferredCycles:    de.Cycles,
			CycleSpeedup:      stats.Ratio(in.Cycles, de.Cycles),
			Drains:            de.DeferredDrains,
			Records:           de.DeferredRecords,
			FindingsIdentical: findingsIdentical(in, de),
			InlineWallNS:      cells[2*i].Wall.Nanoseconds(),
			DeferredWallNS:    cells[2*i+1].Wall.Nanoseconds(),
		}
		if row.Drains > 0 {
			row.RecordsPerDrain = float64(row.Records) / float64(row.Drains)
		}
		if o.Deterministic {
			row.InlineWallNS, row.DeferredWallNS = 0, 0
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteDeferredAmortization renders the amortization table.
func WriteDeferredAmortization(w io.Writer, rows []DeferredRow) {
	n := 0
	if len(rows) > 0 {
		n = len(rows[0].Analyses)
	}
	fmt.Fprintf(w, "Deferred dispatch: per-access clean calls vs batched ring drains (%d analyses,\n", n)
	fmt.Fprintln(w, "transition-cost model; findings must match in every row)")
	fmt.Fprintf(w, "%-15s %16s %16s %9s %10s %12s %9s\n",
		"benchmark", "inline cycles", "deferred cycles", "speedup", "drains", "records", "findings")
	var speedups []float64
	for _, r := range rows {
		verdict := "match"
		if !r.FindingsIdentical {
			verdict = "DIVERGE"
		}
		fmt.Fprintf(w, "%-15s %16d %16d %8.2fx %10d %12d %9s\n",
			r.Name, r.InlineCycles, r.DeferredCycles, r.CycleSpeedup,
			r.Drains, r.Records, verdict)
		speedups = append(speedups, r.CycleSpeedup)
	}
	fmt.Fprintf(w, "geomean cycle speedup: %.2fx (one runtime transition per batch instead of per access)\n",
		stats.Geomean(speedups))
}

// DeferredReport is the BENCH_5.json document: the deferred dispatch
// pipeline's amortization trajectory snapshot.
type DeferredReport struct {
	Schema string  `json:"schema"` // "aikido-deferred-bench/v1"
	Scale  float64 `json:"scale"`
	// Costs records the transition-cost model the rows ran under.
	Costs struct {
		AnalysisDispatch uint64 `json:"analysis_dispatch"`
		BatchDrainBase   uint64 `json:"batch_drain_base"`
		BatchPerRecord   uint64 `json:"batch_per_record"`
	} `json:"dispatch_costs"`
	Geomean           float64       `json:"geomean_cycle_speedup_x"`
	FindingsIdentical bool          `json:"findings_identical"`
	Rows              []DeferredRow `json:"rows"`
}

// DeferredJSON runs the amortization experiment and packages it as a
// machine-readable report.
func DeferredJSON(o Options) (*DeferredReport, error) {
	rows, err := DeferredAmortization(o)
	if err != nil {
		return nil, err
	}
	o = o.normalize()
	rep := &DeferredReport{Schema: "aikido-deferred-bench/v1", Scale: o.Scale, Rows: rows}
	costs := stats.DispatchCosts()
	rep.Costs.AnalysisDispatch = costs.AnalysisDispatch
	rep.Costs.BatchDrainBase = costs.BatchDrainBase
	rep.Costs.BatchPerRecord = costs.BatchPerRecord
	rep.FindingsIdentical = true
	var speedups []float64
	for _, r := range rows {
		speedups = append(speedups, r.CycleSpeedup)
		rep.FindingsIdentical = rep.FindingsIdentical && r.FindingsIdentical
	}
	rep.Geomean = stats.Geomean(speedups)
	return rep, nil
}

// WriteDeferredJSON renders the report as indented JSON.
func WriteDeferredJSON(w io.Writer, rep *DeferredReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
