package core

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/parsec"
	"repro/internal/workload"
)

// TestRegistryDispatchIdentical is the dispatch contract over the whole
// registry: on every PARSEC model, in both analysis-bearing modes, inline
// dispatch hands each registered analysis, plus the sampled wrapper over
// an inner analysis, the same event stream whether it is hosted alone or
// alongside every other one. Each member's findings and counters from the
// registry-wide run must equal its own single-analysis run — including
// next to taint, which observes every retired instruction, and memcheck,
// which shares Umbra's translation memo with the sharing detector.
func TestRegistryDispatchIdentical(t *testing.T) {
	names := append(analysis.Names(), "sampled:lockset")
	reported := 0
	for _, bench := range parsec.All() {
		bench := bench.WithScale(0.25)
		prog, err := workload.Build(bench.Spec)
		if err != nil {
			t.Fatalf("%s: build: %v", bench.Name, err)
		}
		for _, mode := range []Mode{ModeFastTrackFull, ModeAikidoFastTrack} {
			label := bench.Name + "/" + mode.String()
			all := runConfig(t, prog, DefaultConfig(mode).WithAnalyses(names...))
			if len(all.Findings) != len(names) {
				t.Fatalf("%s: registry-wide run hosts %v, want %d analyses",
					label, all.AnalysisNames(), len(names))
			}
			for _, name := range names {
				single := runConfig(t, prog, DefaultConfig(mode).WithAnalyses(name))
				if got := single.AnalysisNames(); len(got) != 1 {
					t.Fatalf("%s/%s: single run hosts %v", label, name, got)
				}
				key := single.AnalysisNames()[0]
				fa, fs := all.Findings[key], single.Findings[key]
				if fa == nil {
					t.Fatalf("%s/%s: registry-wide run has no %q findings", label, name, key)
				}
				reported += len(fs.Strings())
				if !reflect.DeepEqual(fa.Strings(), fs.Strings()) {
					t.Errorf("%s/%s: findings diverge:\nregistry: %v\nsingle:   %v",
						label, name, fa.Strings(), fs.Strings())
				}
				if fa.Summary() != fs.Summary() {
					t.Errorf("%s/%s: counters diverge:\nregistry: %s\nsingle:   %s",
						label, name, fa.Summary(), fs.Summary())
				}
			}
		}
	}
	if reported == 0 {
		t.Error("no analysis reported a finding on any model: the comparison is vacuous")
	}
}
