package lockset

import (
	"testing"
	"unsafe"

	"repro/internal/guest"
)

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
	if got := d.sets.byIdx[d.vars.Cell(x).cv].ids; len(got) != 1 || got[0] != 8 {
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

// touchLockset leaves x Exclusive to thread 1 and y = x+8 SharedModified
// under lock 7 (threads 1 and 2 both write it while holding 7).
func touchLockset(d *Detector) (y uint64) {
	y = x + 8
	d.OnAccess(1, 1, x, 8, true)
	for _, tid := range []guest.TID{1, 2} {
		d.OnAcquire(tid, 7)
		d.OnAccess(tid, 2, y, 8, true)
	}
	return y
}

// TestAccessPathNoAllocs pins the steady-state access contract: reads and
// writes to already touched variables allocate nothing, on the owner fast
// path and on the refinement path alike.
func TestAccessPathNoAllocs(t *testing.T) {
	d := det()
	y := touchLockset(d)
	if n := testing.AllocsPerRun(200, func() {
		d.OnAccess(1, 1, x, 8, false)
		d.OnAccess(1, 1, x, 4, true)
		d.OnAccess(2, 2, y, 8, false)
		d.OnAccess(1, 2, y+4, 4, true)
	}); n != 0 {
		t.Errorf("steady-state accesses allocate %.1f objects per round, want 0", n)
	}
	if len(d.Warnings()) != 0 {
		t.Errorf("lock-protected accesses warned: %v", d.Warnings())
	}
}

// BenchmarkAccessPath measures one steady-state owner access and one
// refinement of a lock-protected shared variable.
func BenchmarkAccessPath(b *testing.B) {
	d := det()
	y := touchLockset(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.OnAccess(1, 1, x, 8, true)
		d.OnAccess(2, 2, y, 8, false)
	}
}

// TestCellLayout pins the block-store cell: 12 pointer-free bytes (the
// candidate set is a table index), so a 64-cell chunk is 768 bytes.
func TestCellLayout(t *testing.T) {
	if n := unsafe.Sizeof(varState{}); n != 12 {
		t.Errorf("varState is %d bytes, want 12", n)
	}
}
