package fasttrack

import (
	"testing"

	"repro/internal/stats"
)

// TestOnAccessFastPathNoAllocs pins the allocation-free guarantee of the
// paged shadow table: once a block's chunk is materialized, the same-epoch
// read and write paths allocate nothing.
func TestOnAccessFastPathNoAllocs(t *testing.T) {
	d := New(&stats.Clock{}, stats.DefaultCosts())
	// Materialize thread clock and variable chunk.
	d.OnAccess(1, 10, x, 8, true)
	d.OnAccess(1, 11, x, 8, false)

	if n := testing.AllocsPerRun(200, func() {
		d.OnAccess(1, 10, x, 8, true) // WRITE SAME EPOCH
	}); n != 0 {
		t.Errorf("same-epoch write allocates %.1f objects per access, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		d.OnAccess(1, 11, x, 8, false) // READ SAME EPOCH
	}); n != 0 {
		t.Errorf("same-epoch read allocates %.1f objects per access, want 0", n)
	}
	// Alternating blocks in distinct chunks must also stay allocation-free
	// (the direct-mapped chunk cache absorbs the alternation).
	d.OnAccess(1, 12, x+1<<14, 8, true)
	if n := testing.AllocsPerRun(200, func() {
		d.OnAccess(1, 10, x, 8, true)
		d.OnAccess(1, 12, x+1<<14, 8, true)
	}); n != 0 {
		t.Errorf("chunk-alternating writes allocate %.1f objects, want 0", n)
	}
}

// BenchmarkPipelineOnAccess measures the detector's same-epoch fast path —
// the per-access cost every retired memory reference pays in FastTrack-full
// mode.
func BenchmarkPipelineOnAccess(b *testing.B) {
	d := New(&stats.Clock{}, stats.DefaultCosts())
	d.OnAccess(1, 10, x, 8, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.OnAccess(1, 10, x, 8, true)
	}
}

// syncRound is one steady-state round of FastTrack synchronization: two
// threads hand a lock back and forth, then meet at a barrier.
func syncRound(d *Detector) {
	d.OnAcquire(1, 7)
	d.OnRelease(1, 7)
	d.OnAcquire(2, 7)
	d.OnRelease(2, 7)
	d.OnBarrierWait(1, 3)
	d.OnBarrierWait(2, 3)
	d.OnBarrierRelease(1, 3)
	d.OnBarrierRelease(2, 3)
}

// TestSyncPathNoAllocs pins the steady-state synchronization contract:
// release overwrites the lock clock in place and a finished barrier
// round resets its accumulator in place, so once the clocks have grown to
// the thread count an acquire/release/barrier round allocates nothing.
func TestSyncPathNoAllocs(t *testing.T) {
	d := New(&stats.Clock{}, stats.DefaultCosts())
	d.OnFork(1, 2)
	syncRound(d)
	if n := testing.AllocsPerRun(200, func() { syncRound(d) }); n != 0 {
		t.Errorf("acquire/release/barrier round allocates %.1f objects, want 0", n)
	}
}

// TestReleaseDoesNotAliasThreadClock pins the ownership rule that makes
// the in-place release sound: L_m is a copy of C_t at release time, and
// later ticks of the releasing thread never show through it.
func TestReleaseDoesNotAliasThreadClock(t *testing.T) {
	d := New(&stats.Clock{}, stats.DefaultCosts())
	d.OnAcquire(1, 7)
	d.OnRelease(1, 7)
	held := d.locks[7].Get(1)
	d.OnAcquire(1, 8)
	d.OnRelease(1, 8) // ticks C_1 again
	if got := d.locks[7].Get(1); got != held {
		t.Errorf("L_7[1] moved from %d to %d after thread 1 ticked", held, got)
	}
	if d.tvc(1).Get(1) == held {
		t.Error("thread clock did not tick past the lock clock")
	}
}

// BenchmarkSyncPath measures one steady-state acquire+release pair.
func BenchmarkSyncPath(b *testing.B) {
	d := New(&stats.Clock{}, stats.DefaultCosts())
	d.OnAcquire(1, 7)
	d.OnRelease(1, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.OnAcquire(1, 7)
		d.OnRelease(1, 7)
	}
}
