package core

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/atomicity"
	"repro/internal/fasttrack"
	"repro/internal/isa"
	"repro/internal/lockset"
	"repro/internal/sampler"
)

// Test-local typed accessors over Result.Findings — the migration target
// of the removed deprecated per-detector Result accessors. Each scans the
// name-keyed findings map and recovers the producing package's typed view
// (through analysis.Unwrap, so sampled runs resolve too).

func racesOf(r *Result) []fasttrack.Race { return fasttrack.RacesIn(r.Findings) }

func ftOf(r *Result) fasttrack.Counters { return fasttrack.CountersIn(r.Findings) }

func warningsOf(r *Result) []lockset.Warning { return lockset.WarningsIn(r.Findings) }

func lsOf(r *Result) lockset.Counters { return lockset.CountersIn(r.Findings) }

func violationsOf(r *Result) []atomicity.Violation {
	for _, name := range r.AnalysisNames() {
		if at, ok := analysis.Unwrap(r.Findings[name]).(*atomicity.Findings); ok {
			return at.Violations
		}
	}
	return nil
}

func atomOf(r *Result) atomicity.Counters {
	for _, name := range r.AnalysisNames() {
		if at, ok := analysis.Unwrap(r.Findings[name]).(*atomicity.Findings); ok {
			return at.Counters
		}
	}
	return atomicity.Counters{}
}

func samplingOf(r *Result) sampler.Counters {
	for _, name := range r.AnalysisNames() {
		if sf, ok := r.Findings[name].(*sampler.Findings); ok {
			return sf.Counters
		}
	}
	return sampler.Counters{}
}

// runConfig runs prog under cfg, failing the test on error.
func runConfig(t *testing.T, prog *isa.Program, cfg Config) *Result {
	t.Helper()
	res, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireIdentical asserts two Results are identical field for field. The
// cycles, engine and sharing counters and each analysis's findings and
// counters are compared first, so a divergence names what moved.
func requireIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Cycles != got.Cycles {
		t.Errorf("%s: cycles diverge: %d vs %d", label, want.Cycles, got.Cycles)
	}
	if want.Engine != got.Engine {
		t.Errorf("%s: engine counters diverge:\nwant: %+v\ngot:  %+v", label, want.Engine, got.Engine)
	}
	if want.SD != got.SD {
		t.Errorf("%s: sharing counters diverge:\nwant: %+v\ngot:  %+v", label, want.SD, got.SD)
	}
	if !reflect.DeepEqual(want.AnalysisNames(), got.AnalysisNames()) {
		t.Fatalf("%s: analysis sets diverge: %v vs %v", label, want.AnalysisNames(), got.AnalysisNames())
	}
	for _, name := range want.AnalysisNames() {
		fw, fg := want.Findings[name], got.Findings[name]
		if !reflect.DeepEqual(fw.Strings(), fg.Strings()) {
			t.Errorf("%s/%s: findings diverge:\nwant: %v\ngot:  %v", label, name, fw.Strings(), fg.Strings())
		}
		if fw.Summary() != fg.Summary() {
			t.Errorf("%s/%s: counters diverge:\nwant: %s\ngot:  %s", label, name, fw.Summary(), fg.Summary())
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: results diverge outside the compared fields", label)
	}
}
