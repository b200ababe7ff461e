package atomicity

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
)

// refDetector is a naive AVIO checker: per-variable state lives in a plain
// map of pointers, with no paging. It is the oracle
// the block-store detector must match.
type refDetector struct {
	costs      stats.CostModel
	cycles     uint64
	live       int
	depth      map[guest.TID]int
	region     map[guest.TID]uint64
	nextRegion uint64
	vars       map[uint64]*refVar
	seen       map[uint64]bool
	violations []Violation
	C          Counters
}

type refVar struct {
	lastTID, remoteTID                  guest.TID
	lastRegion                          uint64
	lastWrite, remoteWrite, remoteValid bool
}

func newRef(live int) *refDetector {
	return &refDetector{
		costs:  stats.DefaultCosts(),
		live:   live,
		depth:  map[guest.TID]int{},
		region: map[guest.TID]uint64{},
		vars:   map[uint64]*refVar{},
		seen:   map[uint64]bool{},
	}
}

func (r *refDetector) acquire(t guest.TID) {
	r.C.SyncOps++
	r.cycles += r.costs.AnalysisSync
	if r.depth[t] == 0 {
		r.nextRegion++
		r.region[t] = r.nextRegion
		r.C.Regions++
	}
	r.depth[t]++
}

func (r *refDetector) release(t guest.TID) {
	r.C.SyncOps++
	r.cycles += r.costs.AnalysisSync
	if r.depth[t] > 0 {
		r.depth[t]--
		if r.depth[t] == 0 {
			r.region[t] = 0
		}
	}
}

func (r *refDetector) access(t guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	if write {
		r.C.Writes++
	} else {
		r.C.Reads++
	}
	r.cycles += r.costs.AnalysisFast
	if r.live > 1 {
		r.cycles += r.costs.AnalysisContention * uint64(min(r.live-1, 8))
	}
	first := addr &^ (1<<BlockShift - 1)
	last := (addr + uint64(size) - 1) &^ (1<<BlockShift - 1)
	for b := first; b <= last; b += 1 << BlockShift {
		r.block(t, pc, b, write)
	}
}

func (r *refDetector) block(t guest.TID, pc isa.PC, b uint64, write bool) {
	v := r.vars[b]
	if v == nil {
		v = &refVar{}
		r.vars[b] = v
		r.C.Variables++
	}
	reg := r.region[t]
	open := func() {
		v.lastTID, v.lastRegion, v.lastWrite, v.remoteValid = t, reg, write, false
	}
	switch {
	case v.lastTID == t && v.lastRegion == reg && reg != 0:
		if v.remoteValid && unserializable(v.lastWrite, v.remoteWrite, write) && !r.seen[b] {
			r.seen[b] = true
			r.violations = append(r.violations, Violation{
				Addr: b, Local: t, Remote: v.remoteTID,
				Pattern: pattern(v.lastWrite, v.remoteWrite, write), PC: pc,
			})
		}
		open()
	case v.lastTID != t && v.lastTID != 0:
		if !v.remoteValid && v.lastRegion != 0 {
			v.remoteTID, v.remoteWrite, v.remoteValid = t, write, true
		}
		if reg != 0 {
			open()
		}
	case reg != 0:
		open()
	case v.lastTID == t:
		v.lastTID, v.remoteValid = 0, false
	}
}

// op is one generated event: a lock operation or a memory access.
type op struct {
	kind  int // 0 acquire, 1 release, 2 access
	tid   guest.TID
	pc    isa.PC
	addr  uint64
	size  uint8
	write bool
}

const (
	genThreads = 4
	genPages   = 3
)

// genOps draws a random event sequence. Addresses cluster on a few
// blocks per page so regions see remote interleavings, and runs of
// repeated accesses hit the same cell back to back. Accesses may
// straddle blocks but never pages.
func genOps(rng *rand.Rand, n int) []op {
	sizes := []uint8{1, 2, 4, 8}
	ops := make([]op, 0, n)
	for len(ops) < n {
		o := op{tid: guest.TID(rng.Intn(genThreads) + 1)}
		switch k := rng.Intn(10); {
		case k < 2:
			o.kind = 0
		case k < 4:
			o.kind = 1
		default:
			o.kind = 2
			o.pc = isa.PC(rng.Intn(16))
			o.addr = uint64(rng.Intn(genPages))<<12 | uint64(rng.Intn(4))<<BlockShift | uint64(rng.Intn(8))
			o.size = sizes[rng.Intn(len(sizes))]
			o.write = rng.Intn(2) == 0
		}
		for rep := 1 + rng.Intn(3); rep > 0 && len(ops) < n; rep-- {
			ops = append(ops, o)
		}
	}
	return ops
}

// checkAgainstRef compares a detector's findings, counters and block
// store with the reference's: the store must hold exactly the reference's
// variables, each in the reference's state.
func checkAgainstRef(t *testing.T, seed int64, d *Detector, ref *refDetector) {
	t.Helper()
	want := slices.Clone(ref.violations)
	slices.SortFunc(want, func(a, b Violation) int { return cmp.Compare(a.Addr, b.Addr) })
	if got := d.Violations(); !slices.Equal(got, want) {
		t.Fatalf("seed %d: violations\n got %v\nwant %v", seed, got, want)
	}
	if d.C != ref.C {
		t.Fatalf("seed %d: counters %+v, want %+v", seed, d.C, ref.C)
	}
	touched := 0
	for _, vs := range d.vars.Range {
		if vs.touched {
			touched++
		}
	}
	if touched != len(ref.vars) {
		t.Fatalf("seed %d: store holds %d variables, want %d", seed, touched, len(ref.vars))
	}
	for b, rv := range ref.vars {
		vs := d.vars.Cell(b)
		got := refVar{vs.lastTID, vs.remoteTID, vs.lastRegion, vs.lastWrite, vs.remoteWrite, vs.remoteValid}
		if !vs.touched || got != *rv {
			t.Fatalf("seed %d: var %#x = %+v, want %+v", seed, b, *vs, *rv)
		}
	}
}

// TestBlockStoreMatchesReference is the atomicity equivalence property:
// on random lock/access sequences the detector reports exactly the naive
// map-backed reference's violations, counters and cycles.
func TestBlockStoreMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		ops := genOps(rand.New(rand.NewSource(seed)), 300)
		ref := newRef(genThreads)

		clock := &stats.Clock{}
		d := New(clock, stats.DefaultCosts())
		d.AddThread(genThreads)
		for _, o := range ops {
			switch o.kind {
			case 0:
				ref.acquire(o.tid)
				d.OnAcquire(o.tid, 1)
			case 1:
				ref.release(o.tid)
				d.OnRelease(o.tid, 1)
			case 2:
				ref.access(o.tid, o.pc, o.addr, o.size, o.write)
				d.OnAccess(o.tid, o.pc, o.addr, o.size, o.write)
			}
		}

		checkAgainstRef(t, seed, d, ref)
		if clock.Cycles() != ref.cycles {
			t.Fatalf("seed %d: cycles %d, want %d", seed, clock.Cycles(), ref.cycles)
		}
	}
}
