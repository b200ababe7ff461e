package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parsec"
	"repro/internal/workload"
)

// benchWorkload is one named set of guest programs. Every program runs as
// three cells — native, FastTrack-full and Aikido-FastTrack — under the
// default cost model, inline dispatch and no static pass.
type benchWorkload struct {
	name string
	// analyses are hosted together on one pass in the FastTrack-full and
	// Aikido cells.
	analyses []string
	// epoch runs the Aikido cell under sharing.DefaultEpochPolicy.
	epoch bool
	// programs builds the workload's programs. scale multiplies iteration
	// counts (1 is the benchmark's size); rng perturbs them.
	programs func(scale float64, rng *rand.Rand) []program
}

// program is one guest program of a workload.
type program struct {
	name string
	src  workload.Source
	// paperShared is Table 2's SharedAccess/MemRefs for the modelled
	// PARSEC benchmark, or -1 when the program has no paper reference.
	paperShared float64
}

// muxAnalyses is parsec-mux4's analysis selection.
var muxAnalyses = []string{"fasttrack", "lockset", "atomicity", "commgraph"}

// workloads lists the benchmark's workloads. The reason each exists is
// recorded beside it in BENCHMARK.json and perfbench/design.json.
var workloads = []benchWorkload{
	{
		name:     "parsec-fig5",
		analyses: []string{"fasttrack"},
		programs: func(scale float64, rng *rand.Rand) []program {
			return parsecPrograms(parsec.All(), scale, rng)
		},
	},
	{
		name:     "parsec-mux4",
		analyses: muxAnalyses,
		programs: func(scale float64, rng *rand.Rand) []program {
			var pick []parsec.Benchmark
			for _, name := range []string{"fluidanimate", "freqmine", "bodytrack", "canneal"} {
				for _, b := range parsec.All() {
					if b.Name == name {
						pick = append(pick, b)
					}
				}
			}
			return parsecPrograms(pick, scale, rng)
		},
	},
	{
		name:     "phase-churn",
		analyses: []string{"fasttrack"},
		epoch:    true,
		programs: phaseChurnPrograms,
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// parsecScale sizes the PARSEC models: a pass of parsec-fig5 then takes
// about a second of host time on a 2-core Xeon, long enough to time well
// and short enough to take a median over many passes in one run.
const parsecScale = 4

func parsecPrograms(bs []parsec.Benchmark, scale float64, rng *rand.Rand) []program {
	f := shares(rng, len(bs))
	out := make([]program, 0, len(bs))
	for i, b := range bs {
		spec := b.Spec
		spec.Iters = count(float64(spec.Iters) * parsecScale * scale * f[i])
		out = append(out, program{name: b.Name, src: spec, paperShared: b.Paper.SharedFrac()})
	}
	return out
}

// phaseChurnPrograms builds the page-state churn set: a migratory program
// whose partitions change owner every one of many short phases, a phased
// program with fixed partitions, and the false-sharing control whose pages
// never have a single owner and so are never demoted. Phases are long
// enough (tens of epochs) for a partition to be demoted before it moves.
//
// The seed also moves the phase counts by up to ±5%; the iterations per
// phase change inversely, so a program's total work stays as drawn. (Each
// phase handoff costs faults, flushes and host allocations, so a wider
// draw would make a seed's phase count, not the simulator, set those.)
func phaseChurnPrograms(scale float64, rng *rand.Rand) []program {
	f := shares(rng, 3)
	phased := func(name string, phases, iters int, work float64, pages, stride int) workload.PhasedSpec {
		lo, hi := math.Ceil(0.95*float64(phases)), math.Floor(1.05*float64(phases))
		n := math.Max(lo, math.Min(hi, math.Round(float64(phases)*(0.95+0.1*rng.Float64()))))
		return workload.PhasedSpec{
			Name: name, Threads: 8, Phases: int(n),
			PhaseIters: count(float64(phases*iters) * scale * work / n), PagesPerPart: pages,
			OpsPerIter: 8, AluOps: 6, MigrateStride: stride, WarmupOps: 1,
		}
	}
	return []program{
		{name: "migratory", src: phased("migratory", 60, 400, f[0], 4, 1), paperShared: -1},
		{name: "phased", src: phased("phased", 6, 4000, f[1], 2, 0), paperShared: -1},
		{name: "falseshare", src: workload.FalseSharingSpec{
			Name: "falseshare", Threads: 8, Iters: count(12000 * scale * f[2]),
			Pages: 2, OpsPerIter: 6, AluOps: 6, SlotStride: 64,
		}, paperShared: -1},
	}
}

// shares draws one work factor per program for a seed: 1+u, with u
// uniform in [-0.05, 0.05], then centred so the factors average exactly 1.
// Each program's iteration count moves by up to ±10%, while the
// workload's total stays the same, so a seed changes the input the
// simulator sees without changing how much work a pass measures.
func shares(rng *rand.Rand, n int) []float64 {
	u := make([]float64, n)
	mean := 0.0
	for i := range u {
		u[i] = 0.1*rng.Float64() - 0.05
		mean += u[i] / float64(n)
	}
	for i := range u {
		u[i] = 1 + u[i] - mean
	}
	return u
}

// count rounds an iteration count, keeping at least one.
func count(n float64) int {
	return max(1, int(math.Round(n)))
}
