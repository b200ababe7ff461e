package lockset

import "testing"

// TestSyncPathNoAllocs pins the steady-state synchronization contract:
// once the hash-consed table has seen a transition, acquire, release and
// a refinement that hits the cached meet allocate nothing.
func TestSyncPathNoAllocs(t *testing.T) {
	d := det()
	nested := func() {
		d.OnAcquire(1, 7)
		d.OnAcquire(1, 8)
		d.OnAcquire(1, 9)
		d.OnRelease(1, 9)
		d.OnRelease(1, 8)
		d.OnRelease(1, 7)
	}
	nested() // warm: interns {7}, {7,8}, {7,8,9} and caches every edge
	if n := testing.AllocsPerRun(200, nested); n != 0 {
		t.Errorf("nested acquire/release allocates %.1f objects per cycle, want 0", n)
	}

	// C(x) = {7,8} after thread 1; thread 2 holding {8,9} refines it to
	// {8}, and every later access by thread 2 meets {8} with {8,9}: a
	// genuine intersection (the sets differ) served by the meet cache.
	d.OnAcquire(1, 7)
	d.OnAcquire(1, 8)
	d.OnAccess(1, 1, x, 8, true)
	d.OnRelease(1, 8)
	d.OnRelease(1, 7)
	d.OnAcquire(2, 8)
	d.OnAcquire(2, 9)
	d.OnAccess(2, 2, x, 8, true) // warm: C(x) := {7,8} ∩ {8,9}
	d.OnAccess(2, 2, x, 8, true) // warm: caches {8} ∩ {8,9}
	before := d.C.Refinements
	cycles := d.clock.Cycles()
	if n := testing.AllocsPerRun(200, func() {
		d.OnAccess(2, 2, x, 8, true)
	}); n != 0 {
		t.Errorf("cached-meet refinement allocates %.1f objects per access, want 0", n)
	}
	if d.C.Refinements == before {
		t.Error("cached meet skipped the Refinements count")
	}
	if d.clock.Cycles()-cycles < (d.C.Refinements-before)*d.costs.AnalysisSlow {
		t.Error("cached meet skipped the AnalysisSlow charge")
	}
	if got := d.vars[x].cv.ids; len(got) != 1 || got[0] != 8 {
		t.Errorf("C(x) = %v, want [8]", got)
	}
}

// BenchmarkSyncPath measures one acquire+release pair in steady state.
func BenchmarkSyncPath(b *testing.B) {
	d := det()
	d.OnAcquire(1, 7)
	d.OnRelease(1, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.OnAcquire(1, 7)
		d.OnRelease(1, 7)
	}
}
