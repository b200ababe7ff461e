// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time, checks every cell's findings against the
// oracle, and prints its metrics, the last line as one JSON object:
//
//	go run ./perfbench --workload parsec-fig5 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced passes.
// With --trace 1 it alternates untraced and traced passes, reports the
// per-layer metrics of the traced ones, checks that tracing left every
// simulated result unchanged, and writes the traced pass's coarse spans
// as Chrome trace-event JSON under .bench_build/.
//
// The workloads, and the metric each layer should move, are described in
// perfbench/design.json. Cells run one after another on one goroutine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// defaultSeed is the workload seed recorded in perfbench/design.json.
const defaultSeed = 1

// minPasses is the fewest passes of each kind a run makes, however short
// --seconds is, so every median has several samples.
const minPasses = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: parsec-fig5, parsec-mux4 or phase-churn")
	seed := fs.Int64("seed", defaultSeed, "workload seed: moves iteration and phase counts by up to ±10%")
	seconds := fs.Float64("seconds", 30, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of traced passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d): %v\n", *name, *trace, err)
		return 2
	}
	out := measure(w, *seed, *seconds, 1, *trace == 1, stdout)
	if *trace == 1 {
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if err := out.tr.writeTrace(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %s\n", path)
	}
	line, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measurement is what measure returns.
type measurement struct {
	result result
	tr     *tracer // the last traced pass's, when tracing
}

// measure runs passes of the workload for the given host time and checks
// each. Untraced, it reports the end-to-end metrics; traced, it
// alternates untraced and traced passes and reports the per-layer ones.
// scale multiplies iteration counts; the benchmark runs at 1.
func measure(w benchWorkload, seed int64, seconds, scale float64, traced bool, log io.Writer) measurement {
	progs := w.programs(scale, rand.New(rand.NewSource(seed)))
	fmt.Fprintf(log, "host: GOOS=%s GOARCH=%s NumCPU=%d GOMAXPROCS=%d %s\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(log, "workload %s: seed %d, scale %g, %d programs × %d cells, analyses %v\n",
		w.name, seed, scale, len(progs), numCells, w.analyses)

	// A run keeps the first pass of each kind whole, for the cell table
	// and the per-layer counts, and only the figures of the others, so
	// that max_rss_mb measures the simulator rather than kept results.
	var first, firstTraced passResult
	var untraced []passMetrics
	var tracedPasses []tracedTimes
	var lastTracer *tracer
	var reference [][numCells]string // fingerprints from the first pass
	attempted, failed := 0, 0
	check := func(p passResult, kind string) {
		for i := range p.programs {
			pr := &p.programs[i]
			errs := checkProgram(pr)
			if len(reference) <= i {
				var fp [numCells]string
				for k, c := range pr.cells {
					if c.res != nil {
						fp[k] = fingerprint(c.res)
					}
				}
				reference = append(reference, fp)
			} else {
				for k, c := range pr.cells {
					if errs[k] == nil && fingerprint(c.res) != reference[i][k] {
						errs[k] = fmt.Errorf("%s pass differs from the first pass", kind)
					}
				}
			}
			for k, err := range errs {
				attempted++
				if err != nil {
					failed++
					fmt.Fprintf(log, "FAIL %s/%s (%s pass): %v\n", pr.prog.name, cellNames[k], kind, err)
				}
			}
		}
	}

	start := wallNow()
	for i := 0; ; i++ {
		enough := len(untraced) >= minPasses && (!traced || len(tracedPasses) >= minPasses)
		if enough && wallNow().Sub(start).Seconds() >= seconds {
			break
		}
		if traced && i%2 == 1 {
			p := runPass(w, progs, newTracer())
			check(p, "traced")
			if len(tracedPasses) == 0 {
				firstTraced = p
			}
			tracedPasses = append(tracedPasses, timesOf(p))
			lastTracer = p.tr
		} else {
			p := runPass(w, progs, nil)
			check(p, "untraced")
			if len(untraced) == 0 {
				first = p
			}
			untraced = append(untraced, endToEnd(p))
			fmt.Fprintf(log, "pass: %.1f ms in reference-host time, speed factor %.3f\n", p.hostNS(true, true, true)/1e6, p.speed())
		}
	}

	for _, pr := range first.programs {
		for k, c := range pr.cells {
			if c.res != nil {
				fmt.Fprintf(log, "cell %-14s %-16s cycles %12d  instructions %9d  faults %5d  run %8.2f ms\n",
					pr.prog.name, cellNames[k], c.res.Cycles, c.res.Engine.Instructions,
					c.res.Engine.Faults, float64(c.runNS)/1e6)
			}
		}
	}
	var ms metricSet
	if traced {
		ms = perLayer(firstTraced, tracedPasses, untraced)
	} else {
		pick := func(f func(passMetrics) float64) float64 { return medianOf(untraced, f) }
		ms.add("wall_s", "s", pick(func(m passMetrics) float64 { return m.wallS }))
		ms.add("guest_minstr_per_s", "Minstr/s", pick(func(m passMetrics) float64 { return m.minstrPerS }))
		ms.add("setup_s", "s", pick(func(m passMetrics) float64 { return m.setupS }))
		ms.add("allocs_per_kinstr", "allocs/kinstr", pick(func(m passMetrics) float64 { return m.allocsPerKinstr }))
		ms.add("max_rss_mb", "MB", maxRSSMB())
		ms.add("sim_slowdown_x", "x", untraced[0].slowdown)
		ms.add("sim_speedup_vs_full_x", "x", untraced[0].speedup)
		if untraced[0].fig6ErrPP >= 0 {
			fmt.Fprintf(log, "paper_fig6_err_pp %.4f pp (Aikido shared-access share vs Table 2)\n", untraced[0].fig6ErrPP)
		} else {
			fmt.Fprintf(log, "paper_fig6_err_pp: none — %s has no paper reference, so its simulated figures are unvalidated\n", w.name)
		}
	}
	fmt.Fprintf(log, "passes: %d untraced, %d traced; cells attempted %d, failed %d\n",
		len(untraced), len(tracedPasses), attempted, failed)
	for _, n := range ms.names {
		v := ms.values[n]
		fmt.Fprintf(log, "%-34s %14.6g %s\n", n, v.Value, v.Unit)
	}
	return measurement{
		result: result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms.values},
		tr:     lastTracer,
	}
}

// maxRSSMB is the process's peak resident memory.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
