// Command aikido-bench regenerates the paper's evaluation — Figure 5,
// Figure 6, Table 1, Table 2 — plus the ablation studies (mirror pages,
// paging modes, context-switch interception, protection providers) and the
// extension experiments (detector comparison, thread scaling,
// Nondeterminator vs FastTrack, STM strong atomicity, CREW record/replay).
//
// Usage:
//
//	aikido-bench [-experiment all|fig5|fig6|table1|table2|ablation|paging|
//	              switch|providers|detectors|muxbench|epochs|static|
//	              scaling|nondet|stm|crew]
//	             [-scale F] [-threads N] [-workers N] [-json FILE]
//	             [-muxjson FILE] [-epochjson FILE] [-staticjson FILE]
//	             [-epoch] [-analysis NAME[,NAME...]] [-deterministic]
//	aikido-bench -experiment chaos [-chaos PLAN] [-scale F] [-workers N]
//	aikido-bench -compare OLD.json,NEW.json [-max-regress-pct P]
//
// -analysis selects the analyses every analysis-bearing cell runs (registry
// names, multiplexed onto one pass per cell); CI diffs the -json report at
// "-analysis fasttrack" (and the "ft" alias) against the default to pin the
// single-analysis path byte-identical through the registry seam. The
// muxbench experiment (and -muxjson, the BENCH_<n>.json source) measures N
// sequential single-analysis Aikido passes against ONE multiplexed pass
// hosting the same N analyses.
//
// Every model×mode experiment matrix is sharded across -workers concurrent
// runner workers (default: all CPUs); results are identical at any worker
// count. The nondet, stm and crew extensions run their own engines
// (SP-bags, the STM, CREW record/replay) sequentially and ignore -workers.
//
// With -json, the Figure 5 workload matrix runs once per (model, mode) with
// wall-clock timing and a machine-readable report is written to FILE ("-"
// for stdout). Checked-in snapshots follow the BENCH_<n>.json convention —
// one per PR that claims a performance change — so the repository carries
// its own perf trajectory; take snapshots with -workers 1, since per-cell
// wall_ns is inflated by contention when cells run concurrently (see
// docs/benchmarking.md). -deterministic zeroes the report's wall_ns fields
// so the bytes depend only on simulated metrics; CI uses it to diff
// -workers 1 against -workers 8.
//
// -epoch enables epoch-based re-privatization (sharing.DefaultEpochPolicy)
// in every Aikido cell: CI's 3-way equivalence leg diffs an -epoch report
// against the baseline to pin that demotion never perturbs the PARSEC
// models. The epochs experiment (and -epochjson, the BENCH_4.json source)
// measures the demotion win on the phased/migratory workload suite, where
// it does fire.
//
// The static experiment (and -staticjson, the BENCH_10.json source)
// measures the static privacy pre-pass (internal/staticanalysis): the
// same Aikido FastTrack cell with pure dynamic classification vs the
// pre-pass pruning provably-private PCs and pre-seeding single-owner
// pages, over every PARSEC model (the guard rail) plus a
// startup-dominated private suite (the headline — the win amortizes over
// thread creation and first touches, not steady-state iterations). The
// experiment doubles as CI's static equivalence leg: it exits nonzero if
// any row's findings diverge between the two cells, a soundness tripwire
// fires, or the pass unexpectedly falls back.
//
// -experiment chaos is the fault-isolation acceptance harness and is NOT
// part of "all": it runs the chaos matrix (every Figure-5 model×mode cell
// plus the epoch suite's demoting workloads) under the deterministic
// fault-injection plan given with -chaos ("[seed=N;]KIND:SEAM[@COUNT];…",
// see internal/faultinject), and exits nonzero if any containment
// contract breaks — an injected fault escaping as a process crash, a
// failure that is not a typed error, a report that differs between
// -workers N and -workers 1, or (with an empty plan) any byte of
// divergence from the chaos-free matrix. CI runs seeded plans and
// asserts exit 0.
//
// An -experiment value that names no experiment exits 2 before anything
// runs.
//
// -compare OLD,NEW is the CI bench-regression gate: both files must be
// BENCH-style snapshots of the same schema and scale, and the command
// exits nonzero when NEW's geomean cycle speedup is more than
// -max-regress-pct percent below OLD's.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/experiments"
)

// experiment is one text experiment -experiment can select.
type experiment struct {
	name string
	run  func(o experiments.Options, w io.Writer) error
}

// textExperiments are the text experiments in the order "all" runs them.
// The -experiment check and its usage string both derive from this list.
var textExperiments = []experiment{
	{"fig5", func(o experiments.Options, w io.Writer) error {
		rows, err := experiments.Figure5(o)
		if err != nil {
			return err
		}
		experiments.WriteFigure5(w, rows)
		return nil
	}},
	{"fig6", func(o experiments.Options, w io.Writer) error {
		rows, err := experiments.Figure6(o)
		if err != nil {
			return err
		}
		experiments.WriteFigure6(w, rows)
		return nil
	}},
	{"table1", func(o experiments.Options, w io.Writer) error {
		cells, err := experiments.Table1(o)
		if err != nil {
			return err
		}
		experiments.WriteTable1(w, cells)
		return nil
	}},
	{"table2", func(o experiments.Options, w io.Writer) error {
		rows, red, err := experiments.Table2(o)
		if err != nil {
			return err
		}
		experiments.WriteTable2(w, rows, red)
		return nil
	}},
	{"ablation", func(o experiments.Options, w io.Writer) error {
		rows, err := experiments.Ablations(o)
		if err != nil {
			return err
		}
		experiments.WriteAblations(w, rows)
		return nil
	}},
	{"paging", func(o experiments.Options, w io.Writer) error {
		rows, err := experiments.AblationPaging(o)
		if err != nil {
			return err
		}
		experiments.WriteAblationPaging(w, rows)
		return nil
	}},
	{"switch", func(o experiments.Options, w io.Writer) error {
		rows, err := experiments.AblationSwitch(o)
		if err != nil {
			return err
		}
		experiments.WriteAblationSwitch(w, rows)
		return nil
	}},
	{"providers", func(o experiments.Options, w io.Writer) error {
		rows, err := experiments.AblationProviders(o)
		if err != nil {
			return err
		}
		experiments.WriteAblationProviders(w, rows)
		return nil
	}},
	{"detectors", func(o experiments.Options, w io.Writer) error {
		rows, err := experiments.ExtensionDetectors(o)
		if err != nil {
			return err
		}
		experiments.WriteExtensionDetectors(w, rows)
		return nil
	}},
	{"muxbench", func(o experiments.Options, w io.Writer) error {
		rows, err := experiments.MuxAmortization(o)
		if err != nil {
			return err
		}
		experiments.WriteMuxAmortization(w, rows)
		return nil
	}},
	{"epochs", func(o experiments.Options, w io.Writer) error {
		rows, err := experiments.Epochs(o)
		if err != nil {
			return err
		}
		experiments.WriteEpochs(w, rows)
		return nil
	}},
	{"static", func(o experiments.Options, w io.Writer) error {
		rows, err := experiments.StaticAmortization(o)
		if err != nil {
			return err
		}
		experiments.WriteStaticAmortization(w, rows)
		// The static experiment doubles as the CI equivalence leg: any
		// findings divergence, tripwire or unexpected fallback is a
		// soundness failure, not a performance result.
		for _, r := range rows {
			if !r.FindingsIdentical {
				return fmt.Errorf("%s: findings diverge between dynamic and static cells", r.Name)
			}
			if r.Tripwires > 0 {
				return fmt.Errorf("%s: %d soundness tripwires fired", r.Name, r.Tripwires)
			}
			if r.Fallback != "" {
				return fmt.Errorf("%s: static pass fell back: %s", r.Name, r.Fallback)
			}
		}
		return nil
	}},
	{"scaling", func(o experiments.Options, w io.Writer) error {
		pts, err := experiments.ExtensionScaling(o)
		if err != nil {
			return err
		}
		experiments.WriteExtensionScaling(w, pts)
		return nil
	}},
	{"nondet", func(o experiments.Options, w io.Writer) error {
		rows, err := experiments.ExtensionNondeterminator(o)
		if err != nil {
			return err
		}
		experiments.WriteExtensionNondeterminator(w, rows)
		return nil
	}},
	{"stm", func(o experiments.Options, w io.Writer) error {
		rows, err := experiments.ExtensionSTM(o)
		if err != nil {
			return err
		}
		experiments.WriteExtensionSTM(w, rows)
		return nil
	}},
	{"crew", func(o experiments.Options, w io.Writer) error {
		rows, err := experiments.ExtensionCREW(o)
		if err != nil {
			return err
		}
		experiments.WriteExtensionCREW(w, rows)
		return nil
	}},
}

// experimentNames lists every valid -experiment value: "all", each text
// experiment, and the chaos harness.
func experimentNames() []string {
	names := []string{"all"}
	for _, e := range textExperiments {
		names = append(names, e.name)
	}
	return append(names, "chaos")
}

// checkExperiment rejects an -experiment value that names no experiment.
func checkExperiment(name string) error {
	names := experimentNames()
	if !slices.Contains(names, name) {
		return fmt.Errorf("unknown -experiment %q (want one of %s)", name, strings.Join(names, ", "))
	}
	return nil
}

func main() {
	exp := flag.String("experiment", "all", "which experiment: "+strings.Join(experimentNames(), ", "))
	scale := flag.Float64("scale", 1.0, "workload size multiplier (1.0 = simsmall-scaled default)")
	threads := flag.Int("threads", 0, "override worker threads (0 = benchmark default, 8)")
	workers := flag.Int("workers", runtime.NumCPU(), "runner pool size for the experiment sweep (results are identical at any value)")
	jsonOut := flag.String("json", "", "write a machine-readable bench report to this file (\"-\" = stdout) instead of running text experiments")
	muxOut := flag.String("muxjson", "", "write the mux-amortization report (BENCH_3.json snapshots) to this file (\"-\" = stdout)")
	epochOut := flag.String("epochjson", "", "write the epoch re-privatization report (BENCH_4.json snapshots) to this file (\"-\" = stdout)")
	staticOut := flag.String("staticjson", "", "write the static privacy pre-pass report (BENCH_10.json snapshots) to this file (\"-\" = stdout)")
	epoch := flag.Bool("epoch", false, "enable epoch-based re-privatization in every Aikido cell (CI diffs this against the baseline)")
	det := flag.Bool("deterministic", false, "zero wall_ns in machine-readable reports so output bytes depend only on simulated metrics")
	analyses := flag.String("analysis", "", "comma-separated analyses for every analysis-bearing cell (registry names; empty = default FastTrack)")
	chaosPlan := flag.String("chaos", "", "with -experiment chaos: the fault-injection plan [seed=N;]KIND:SEAM[@COUNT];... (empty = idle-overhead identity check)")
	compare := flag.String("compare", "", "OLD.json,NEW.json: compare two BENCH snapshots of one schema and fail on regression (CI gate)")
	maxRegress := flag.Float64("max-regress-pct", 5, "with -compare, the allowed geomean-cycle-speedup regression in percent")
	flag.Parse()
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fmt.Fprintf(os.Stderr, "aikido-bench: -scale must be a finite number > 0, got %v\n", *scale)
		os.Exit(2)
	}
	if err := checkExperiment(*exp); err != nil {
		fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
		os.Exit(2)
	}

	if *compare != "" {
		oldPath, newPath, err := experiments.ParseComparePair(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
			os.Exit(2)
		}
		summary, err := experiments.CompareSnapshots(oldPath, newPath, *maxRegress)
		if summary != "" {
			fmt.Println(summary)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	o := experiments.Options{Scale: *scale, Threads: *threads, Workers: *workers,
		Deterministic: *det, Analyses: analysis.ParseList(*analyses), Epoch: *epoch}
	w := os.Stdout
	// The chaos harness replaces the text experiments entirely (and is
	// excluded from -experiment all): it sweeps its own matrix twice for
	// the determinism check and asserts its containment contracts,
	// exiting nonzero — after rendering the report — when any fails.
	if *exp == "chaos" {
		rep, err := experiments.ChaosSweep(o, *chaosPlan)
		if rep != nil {
			experiments.WriteChaos(w, rep)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "aikido-bench: chaos: %v\n", err)
			os.Exit(1)
		}
		return
	}

	openOut := func(path string) *os.File {
		if path == "-" {
			return os.Stdout
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
			os.Exit(1)
		}
		return f
	}

	// -json, -muxjson, -epochjson and -staticjson each replace the text
	// experiments; given together, every requested report is produced.
	if *jsonOut != "" || *muxOut != "" || *epochOut != "" || *staticOut != "" {
		if *jsonOut != "" {
			rep, err := experiments.BenchJSON(o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aikido-bench: json: %v\n", err)
				os.Exit(1)
			}
			out := openOut(*jsonOut)
			if out != os.Stdout {
				defer out.Close()
			}
			if err := experiments.WriteBenchJSON(out, rep); err != nil {
				fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
				os.Exit(1)
			}
		}
		if *muxOut != "" {
			rep, err := experiments.MuxJSON(o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aikido-bench: muxjson: %v\n", err)
				os.Exit(1)
			}
			out := openOut(*muxOut)
			if out != os.Stdout {
				defer out.Close()
			}
			if err := experiments.WriteMuxJSON(out, rep); err != nil {
				fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
				os.Exit(1)
			}
		}
		if *epochOut != "" {
			rep, err := experiments.EpochJSON(o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aikido-bench: epochjson: %v\n", err)
				os.Exit(1)
			}
			out := openOut(*epochOut)
			if out != os.Stdout {
				defer out.Close()
			}
			if err := experiments.WriteEpochJSON(out, rep); err != nil {
				fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
				os.Exit(1)
			}
		}
		if *staticOut != "" {
			rep, err := experiments.StaticJSON(o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aikido-bench: staticjson: %v\n", err)
				os.Exit(1)
			}
			out := openOut(*staticOut)
			if out != os.Stdout {
				defer out.Close()
			}
			if err := experiments.WriteStaticJSON(out, rep); err != nil {
				fmt.Fprintf(os.Stderr, "aikido-bench: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	for _, e := range textExperiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		if err := e.run(o, w); err != nil {
			fmt.Fprintf(os.Stderr, "aikido-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Fprintln(w)
	}
}
