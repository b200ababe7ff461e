package core

import (
	"testing"

	"repro/internal/analysis"
)

// TestRegistrySyncPathNoAllocs extends the zero-allocation contract to the
// synchronization hooks of every registered analysis, plus the sampled
// wrapper over a sync-heavy inner analysis: after one warm-up round, a
// round of OnAcquire/OnRelease/OnBarrierWait/OnBarrierRelease across two
// threads allocates nothing. Each analysis is built by the system that
// would host it, so factories needing shadow memory get it.
func TestRegistrySyncPathNoAllocs(t *testing.T) {
	names := append(analysis.Names(), "sampled:lockset")
	prog := sharedProgram(4, true)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			s, err := NewSystem(prog, DefaultConfig(ModeAikidoFastTrack).WithAnalyses(name))
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Analyses) != 1 {
				t.Fatalf("system built %d analyses, want 1", len(s.Analyses))
			}
			a := s.Analyses[0]
			round := func() {
				a.OnAcquire(1, 7)
				a.OnAcquire(1, 8)
				a.OnRelease(1, 8)
				a.OnRelease(1, 7)
				a.OnAcquire(2, 7)
				a.OnRelease(2, 7)
				a.OnBarrierWait(1, 3)
				a.OnBarrierWait(2, 3)
				a.OnBarrierRelease(1, 3)
				a.OnBarrierRelease(2, 3)
			}
			round()
			if n := testing.AllocsPerRun(100, round); n != 0 {
				t.Errorf("%s: sync round allocates %.1f objects, want 0", name, n)
			}
		})
	}
}
