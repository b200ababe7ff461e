package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"testing"

	"repro/internal/fasttrack"
	"repro/internal/lockset"
)

// tinyScale keeps the self-test's passes to a few milliseconds.
const tinyScale = 0.02

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsPassOracle runs every workload untraced and traced, at the
// default seed and one other, and requires every cell to pass the
// findings oracle, the traced passes to reproduce the untraced results,
// and the traced cycle ledger to sum to each cell's Result.Cycles.
func TestWorkloadsPassOracle(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, 7} {
			for _, traced := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/seed%d/traced=%v", w.name, seed, traced), func(t *testing.T) {
					m := measure(w, seed, 0, tinyScale, traced, io.Discard)
					r := m.result
					if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
						t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
					}
				})
			}
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that a run reports exactly the
// metrics BENCHMARK.json declares, with the declared units, and that the
// names and counts are within the benchmark format's limits.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := readBenchmarkSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128",
			len(spec.EndToEnd), len(spec.PerLayer))
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if fmt.Sprint(declared) != fmt.Sprint(have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", declared, have)
	}
	w, err := findWorkload("parsec-mux4")
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		got := measure(w, defaultSeed, 0, tinyScale, traced, io.Discard).result.Metrics
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if !name.MatchString(n) {
				t.Errorf("metric name %q does not match %v", n, name)
			}
		}
		if len(got) != len(want) {
			t.Errorf("traced=%v: run reports %d metrics %v, BENCHMARK.json declares %d", traced, len(got), names, len(want))
		}
		for _, m := range want {
			if g, ok := got[m.Name]; !ok {
				t.Errorf("traced=%v: BENCHMARK.json metric %s not reported", traced, m.Name)
			} else if g.Unit != m.Unit {
				t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
			}
		}
	}
}

// runProgram runs the three cells of one program of a workload.
func runProgram(t *testing.T, workloadName, prog string, scale float64) *programResult {
	t.Helper()
	w, err := findWorkload(workloadName)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range w.programs(scale, rand.New(rand.NewSource(defaultSeed))) {
		if p.name == prog {
			pass := runPass(w, []program{p}, nil)
			return &pass.programs[0]
		}
	}
	t.Fatalf("%s has no program %s", workloadName, prog)
	return nil
}

// TestOracleCatchesCorruptFinding shows the oracle can fail: a race
// missing from the Aikido cell, or a lockset warning at another PC, fails
// that cell; a lockset warning reported by another thread does not.
func TestOracleCatchesCorruptFinding(t *testing.T) {
	// canneal's unsynchronized accesses race within a few hundred
	// iterations; tinyScale leaves it too few.
	pr := runProgram(t, "parsec-mux4", "canneal", 0.25)
	if errs := checkProgram(pr); errs != [numCells]error{} {
		t.Fatalf("clean run fails the oracle: %v", errs)
	}
	aik := pr.cells[cellAikido].res

	ft := aik.Findings["fasttrack"].(*fasttrack.Findings)
	if len(ft.Races) == 0 {
		t.Fatal("canneal found no races; the corruption below would test nothing")
	}
	races := ft.Races
	ft.Races = races[1:]
	if err := checkProgram(pr)[cellAikido]; err == nil {
		t.Error("oracle passed an Aikido cell missing a race")
	}
	ft.Races = races

	ls := aik.Findings["lockset"].(*lockset.Findings)
	if len(ls.Warnings) == 0 {
		t.Fatal("canneal has no lockset warnings; the corruption below would test nothing")
	}
	saved := ls.Warnings[0]
	ls.Warnings[0].TID += 1
	if err := checkProgram(pr)[cellAikido]; err != nil {
		t.Errorf("oracle failed on a different reporting thread: %v", err)
	}
	ls.Warnings[0] = saved
	ls.Warnings[0].PC += 1000
	if err := checkProgram(pr)[cellAikido]; err == nil {
		t.Error("oracle passed a lockset warning at a different PC")
	}
	ls.Warnings[0] = saved

	pr.cells[cellNative].res.ExitCode = 3
	if err := checkProgram(pr)[cellNative]; err == nil {
		t.Error("oracle passed a nonzero guest exit code")
	}
}

// TestSeedDeterminesInputs checks that a seed always gives the same
// programs, that another seed gives different ones, and that a seed keeps
// each workload's total iteration count.
func TestSeedDeterminesInputs(t *testing.T) {
	render := func(w benchWorkload, seed int64) string {
		return fmt.Sprintf("%+v", w.programs(1, rand.New(rand.NewSource(seed))))
	}
	for _, w := range workloads {
		if render(w, 1) != render(w, 1) {
			t.Errorf("%s: one seed gave two inputs", w.name)
		}
		if render(w, 1) == render(w, 2) {
			t.Errorf("%s: seeds 1 and 2 gave the same input", w.name)
		}
	}
	for seed := int64(0); seed < 50; seed++ {
		f := shares(rand.New(rand.NewSource(seed)), 10)
		sum := 0.0
		for _, x := range f {
			if x < 0.9 || x > 1.1 {
				t.Fatalf("seed %d: factor %v outside ±10%%", seed, x)
			}
			sum += x
		}
		if sum < 10-1e-9 || sum > 10+1e-9 {
			t.Fatalf("seed %d: factors sum to %v, want 10", seed, sum)
		}
	}
}
