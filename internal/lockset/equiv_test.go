package lockset

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/guest"
	"repro/internal/stats"
)

// refDetector is a naive Eraser LockSet: locksets are plain sorted
// slices, recomputed on every event, with no interning and no caches. It
// is the oracle the hash-consed detector must match.
type refDetector struct {
	costs    stats.CostModel
	cycles   uint64
	live     int
	held     map[guest.TID][]int64
	vars     map[uint64]*refVar
	seen     map[uint64]bool
	warnings []Warning
	C        Counters
}

type refVar struct {
	state State
	owner guest.TID
	cv    []int64
}

func newRef(live int) *refDetector {
	return &refDetector{
		costs: stats.DefaultCosts(),
		live:  live,
		held:  make(map[guest.TID][]int64),
		vars:  make(map[uint64]*refVar),
		seen:  make(map[uint64]bool),
	}
}

func (r *refDetector) acquire(t guest.TID, l int64) {
	r.C.SyncOps++
	r.cycles += r.costs.AnalysisSync
	for _, id := range r.held[t] {
		if id == l {
			return
		}
	}
	ids := append(append([]int64(nil), r.held[t]...), l)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	r.held[t] = ids
}

func (r *refDetector) release(t guest.TID, l int64) {
	r.C.SyncOps++
	r.cycles += r.costs.AnalysisSync
	var ids []int64
	for _, id := range r.held[t] {
		if id != l {
			ids = append(ids, id)
		}
	}
	r.held[t] = ids
}

func (r *refDetector) access(t guest.TID, addr uint64, size uint8, write bool) {
	if r.live > 1 {
		r.cycles += r.costs.AnalysisContention * uint64(min(r.live-1, 8))
	}
	first := addr &^ (1<<BlockShift - 1)
	last := (addr + uint64(size) - 1) &^ (1<<BlockShift - 1)
	for b := first; b <= last; b += 1 << BlockShift {
		r.block(t, b, write)
	}
}

func (r *refDetector) block(t guest.TID, b uint64, write bool) {
	if write {
		r.C.Writes++
	} else {
		r.C.Reads++
	}
	v := r.vars[b]
	if v == nil {
		v = &refVar{state: Virgin}
		r.vars[b] = v
		r.C.Variables++
	}
	switch v.state {
	case Virgin:
		v.state, v.owner, v.cv = Exclusive, t, r.held[t]
		r.cycles += r.costs.AnalysisFast
		return
	case Exclusive:
		if t == v.owner {
			r.cycles += r.costs.AnalysisFast
			return
		}
		v.state = Shared
		if write {
			v.state = SharedModified
		}
	case Shared:
		if write {
			v.state = SharedModified
		}
	}
	r.C.Refinements++
	r.cycles += r.costs.AnalysisSlow
	var meet []int64
	for _, a := range v.cv {
		for _, h := range r.held[t] {
			if a == h {
				meet = append(meet, a)
			}
		}
	}
	v.cv = meet
	if v.state == SharedModified && len(v.cv) == 0 && !r.seen[b] {
		r.seen[b] = true
		r.warnings = append(r.warnings, Warning{Addr: b, TID: t, PC: 1, Write: write})
	}
}

// syncOp is one generated event: a lock operation or a memory access.
type syncOp struct {
	kind  int // 0 acquire, 1 release, 2 access
	tid   guest.TID
	lock  int64
	addr  uint64
	size  uint8
	write bool
}

const (
	genThreads = 4
	genPages   = 3
)

// genOps draws a random event sequence over a few threads, locks and
// variables. Accesses may straddle 8-byte blocks but never pages.
func genOps(rng *rand.Rand, n int) []syncOp {
	locks := []int64{1, 2, 3, 40, -5}
	sizes := []uint8{1, 2, 4, 8}
	ops := make([]syncOp, n)
	for i := range ops {
		op := syncOp{tid: guest.TID(rng.Intn(genThreads) + 1)}
		switch k := rng.Intn(10); {
		case k < 3:
			op.kind, op.lock = 0, locks[rng.Intn(len(locks))]
		case k < 5:
			op.kind, op.lock = 1, locks[rng.Intn(len(locks))]
		default:
			op.kind = 2
			op.addr = uint64(rng.Intn(genPages))<<12 | uint64(rng.Intn(4))<<BlockShift | uint64(rng.Intn(8))
			op.size = sizes[rng.Intn(len(sizes))]
			op.write = rng.Intn(2) == 0
		}
		ops[i] = op
	}
	return ops
}

// checkIdentity asserts the hash-consing invariant over every set d
// refers to: equal contents are one pointer, and that pointer is what the
// table interns the contents to.
func checkIdentity(t *testing.T, seed int64, d *Detector) {
	t.Helper()
	var all []*lockSet
	all = append(all, d.held...)
	for _, vs := range d.vars.Range {
		if vs.state != Virgin {
			all = append(all, d.sets.byIdx[vs.cv])
		}
	}
	byContent := map[string]*lockSet{}
	for _, ls := range all {
		k := idsKey(ls.ids)
		if prev, ok := byContent[k]; ok && prev != ls {
			t.Fatalf("seed %d: set %v has two handles", seed, ls.ids)
		}
		byContent[k] = ls
		if got := d.sets.intern(ls.ids); got != ls {
			t.Fatalf("seed %d: set %v is not the table's canonical handle", seed, ls.ids)
		}
		if d.sets.byIdx[ls.idx] != ls {
			t.Fatalf("seed %d: set %v is not at its dense index %d", seed, ls.ids, ls.idx)
		}
	}
}

// idsKey renders a set's contents as a map key.
func idsKey(ids []int64) string {
	b := make([]byte, 0, 8*len(ids))
	for _, id := range ids {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(id>>s))
		}
	}
	return string(b)
}

// checkAgainstRef compares a detector's findings, counters and per-set
// contents with the reference's.
func checkAgainstRef(t *testing.T, seed int64, d *Detector, ref *refDetector) {
	t.Helper()
	want := append([]Warning(nil), ref.warnings...)
	sort.Slice(want, func(i, j int) bool { return want[i].Addr < want[j].Addr })
	if got := d.Warnings(); !slices.Equal(got, want) {
		t.Fatalf("seed %d: warnings\n got %v\nwant %v", seed, got, want)
	}
	if d.C != ref.C {
		t.Fatalf("seed %d: counters %+v, want %+v", seed, d.C, ref.C)
	}
	for b, rv := range ref.vars {
		vs := d.vars.Cell(b)
		if cv := d.sets.byIdx[vs.cv].ids; vs.state != rv.state || !slices.Equal(cv, rv.cv) {
			t.Fatalf("seed %d: var %#x = %v %v, want %+v", seed, b, vs.state, cv, rv)
		}
	}
	for tid, ids := range ref.held {
		if got := d.heldBy(tid).ids; !slices.Equal(got, ids) {
			t.Fatalf("seed %d: held(%d) = %v, want %v", seed, tid, got, ids)
		}
	}
}

// TestHashConsedMatchesReference is the lockset equivalence property: on
// random acquire/release/access sequences the hash-consed detector with
// cached transitions reports exactly the naive reference's warnings,
// counters and cycles, and equal sets always share one handle.
func TestHashConsedMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		ops := genOps(rand.New(rand.NewSource(seed)), 200)

		ref := newRef(genThreads)
		clock := &stats.Clock{}
		d := New(clock, stats.DefaultCosts())
		d.AddThread(genThreads)

		for _, op := range ops {
			switch op.kind {
			case 0:
				ref.acquire(op.tid, op.lock)
				d.OnAcquire(op.tid, op.lock)
			case 1:
				ref.release(op.tid, op.lock)
				d.OnRelease(op.tid, op.lock)
			case 2:
				ref.access(op.tid, op.addr, op.size, op.write)
				d.OnAccess(op.tid, 1, op.addr, op.size, op.write)
			}
		}

		checkAgainstRef(t, seed, d, ref)
		if clock.Cycles() != ref.cycles {
			t.Fatalf("seed %d: cycles %d, want %d", seed, clock.Cycles(), ref.cycles)
		}
		checkIdentity(t, seed, d)
	}
}
