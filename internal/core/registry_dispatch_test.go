package core

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/isa"
	"repro/internal/memcheck"
	"repro/internal/parsec"
	"repro/internal/sharing"
	"repro/internal/workload"
)

// TestRegistryDispatchIdentical is the dispatch contract over the whole
// registry: for every registered analysis, plus the sampled wrapper over
// an inner analysis, deferred and vectorized dispatch produce a Result
// byte-identical to inline dispatch on every PARSEC model, in both
// analysis-bearing modes. An analysis that observes every retired
// instruction (taint) makes the system fall back to inline dispatch, so
// its batched runs must equal the inline run exactly.
//
// memcheck is the one scoped exception. Its shadow map shares Umbra's
// per-thread translation memo with the sharing detector, and batching
// moves memcheck's lookups away from the sharing detector's, so a batched
// run can miss the memo where the inline run hit it. Its findings and
// memcheck counters must still be identical, and each extra miss costs
// exactly one translate miss instead of a hit: the cycle delta must be a
// non-negative multiple of ShadowTranslateMiss − ShadowTranslate, matched
// by as many extra Umbra global lookups.
//
// Phased dispatch is checked against inline in the Aikido mode, both under
// the default epoch and phase policies. There a model's pages may split,
// so only the page split/join counts may differ besides the pipeline's
// own counters, and at least one cell must bank a record.
func TestRegistryDispatchIdentical(t *testing.T) {
	names := append(analysis.Names(), "sampled:lockset")
	var banked uint64
	for _, bench := range parsec.All() {
		bench := bench.WithScale(0.25)
		prog, err := workload.Build(bench.Spec)
		if err != nil {
			t.Fatalf("%s: build: %v", bench.Name, err)
		}
		for _, mode := range []Mode{ModeFastTrackFull, ModeAikidoFastTrack} {
			for _, name := range names {
				cfg := DefaultConfig(mode).WithAnalyses(name)
				label := bench.Name + "/" + mode.String() + "/" + name
				inline := runDispatch(t, prog, cfg, DispatchInline)
				inlineOnly := retireObserving(t, prog, cfg)
				for _, d := range []DispatchMode{DispatchDeferred, DispatchVectorized} {
					batched := runDispatch(t, prog, cfg, d)
					switch {
					case name == memcheck.Kind:
						requireMemcheckScoped(t, label+"/"+d.String(), inline, batched)
					case inlineOnly:
						if !reflect.DeepEqual(inline, batched) {
							t.Errorf("%s/%s: inline fallback diverges from inline", label, d)
						}
					default:
						requireIdentical(t, label+"/"+d.String(), inline, batched)
					}
				}
			}
		}
		phCfg := DefaultConfig(ModeAikidoFastTrack)
		phCfg.Epoch = sharing.DefaultEpochPolicy()
		phCfg.Phase = sharing.DefaultPhasePolicy()
		for _, name := range names {
			cfg := phCfg.WithAnalyses(name)
			inline := *runDispatch(t, prog, cfg, DispatchInline)
			phased := *runDispatch(t, prog, cfg, DispatchPhased)
			banked += phased.PhaseBanked
			inline.SD.PagesSplit, inline.SD.PagesJoined = 0, 0
			phased.SD.PagesSplit, phased.SD.PagesJoined = 0, 0
			requireSameResult(t, bench.Name+"/phased/"+name, &inline, &phased)
		}
	}
	if banked == 0 {
		t.Error("no phased cell banked a record — the phased comparison is vacuous")
	}
}

// requireMemcheckScoped asserts memcheck's scoped dispatch contract (see
// TestRegistryDispatchIdentical).
func requireMemcheckScoped(t *testing.T, label string, inline, batched *Result) {
	t.Helper()
	if batched.DeferredRecords == 0 {
		t.Errorf("%s: batched run banked no records — the comparison is vacuous", label)
	}
	fi, fb := inline.Findings[memcheck.Kind], batched.Findings[memcheck.Kind]
	if !reflect.DeepEqual(fi.Strings(), fb.Strings()) {
		t.Errorf("%s: findings diverge:\ninline:  %v\nbatched: %v", label, fi.Strings(), fb.Strings())
	}
	if fi.Summary() != fb.Summary() {
		t.Errorf("%s: counters diverge:\ninline:  %s\nbatched: %s", label, fi.Summary(), fb.Summary())
	}
	costs := DefaultConfig(inline.Mode).Costs
	miss := costs.ShadowTranslateMiss - costs.ShadowTranslate
	if batched.Cycles < inline.Cycles || (batched.Cycles-inline.Cycles)%miss != 0 {
		t.Fatalf("%s: cycles %d → %d: delta is not a whole number of translate misses (%d cycles each)",
			label, inline.Cycles, batched.Cycles, miss)
	}
	extra := (batched.Cycles - inline.Cycles) / miss
	if got := batched.Umbra.GlobalLookups - inline.Umbra.GlobalLookups; got != extra {
		t.Errorf("%s: %d extra cycles explained by %d translate misses, but Umbra made %d extra global lookups",
			label, batched.Cycles-inline.Cycles, extra, got)
	}
	in, ba := stripDeferredCounters(inline), stripDeferredCounters(batched)
	in.Cycles, ba.Cycles = 0, 0
	in.Umbra, ba.Umbra = inline.Umbra, inline.Umbra
	in.Findings, ba.Findings = nil, nil
	if !reflect.DeepEqual(in, ba) {
		t.Errorf("%s: results diverge outside cycles, Umbra counters and findings", label)
	}
}

// retireObserving reports whether the system built for cfg hosts an
// analysis that observes retired instructions.
func retireObserving(t *testing.T, prog *isa.Program, cfg Config) bool {
	t.Helper()
	s, err := NewSystem(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range s.Analyses {
		if _, ok := asRetireObserver(a); ok {
			return true
		}
	}
	return false
}
