package commgraph

import (
	"maps"
	"math/rand"
	"testing"

	"repro/internal/guest"
	"repro/internal/stats"
	"repro/internal/vm"
)

// refProfiler is a naive communication-graph profiler: last writers live
// in a plain map, with no paging. It is the oracle
// the block-store profiler must match.
type refProfiler struct {
	costs      stats.CostModel
	cycles     uint64
	lastWriter map[uint64]guest.TID
	edges      map[Edge]uint64
	pageEdges  map[uint64]map[Edge]uint64
	C          Counters
}

func newRef() *refProfiler {
	return &refProfiler{
		costs:      stats.DefaultCosts(),
		lastWriter: map[uint64]guest.TID{},
		edges:      map[Edge]uint64{},
		pageEdges:  map[uint64]map[Edge]uint64{},
	}
}

func (r *refProfiler) observe(t guest.TID, addr uint64, write bool) {
	r.cycles += r.costs.AnalysisFast
	key := addr &^ 7
	if write {
		r.C.Writes++
		if _, ok := r.lastWriter[key]; !ok {
			r.C.Variables++
		}
		r.lastWriter[key] = t
		return
	}
	r.C.Reads++
	w, ok := r.lastWriter[key]
	if !ok || w == t {
		return
	}
	r.C.Communications++
	e := Edge{From: w, To: t}
	r.edges[e]++
	pe := r.pageEdges[vm.PageNum(addr)]
	if pe == nil {
		pe = map[Edge]uint64{}
		r.pageEdges[vm.PageNum(addr)] = pe
	}
	pe[e]++
}

// op is one generated access.
type op struct {
	tid   guest.TID
	addr  uint64
	size  uint8
	write bool
}

const (
	genThreads = 4
	genPages   = 3
)

// genOps draws a random access sequence over a few blocks per page, in
// runs of repeats (consecutive same-block accesses). Accesses stay in
// the first 40 bytes of a page.
func genOps(rng *rand.Rand, n int) []op {
	sizes := []uint8{1, 2, 4, 8}
	ops := make([]op, 0, n)
	for len(ops) < n {
		o := op{
			tid:   guest.TID(rng.Intn(genThreads) + 1),
			addr:  uint64(rng.Intn(genPages))<<12 | uint64(rng.Intn(4))<<3 | uint64(rng.Intn(8)),
			size:  sizes[rng.Intn(len(sizes))],
			write: rng.Intn(3) == 0,
		}
		for rep := 1 + rng.Intn(3); rep > 0 && len(ops) < n; rep-- {
			ops = append(ops, o)
		}
	}
	return ops
}

// checkAgainstRef compares a profiler's graph and counters with the
// reference's.
func checkAgainstRef(t *testing.T, seed int64, a *Analysis, ref *refProfiler) {
	t.Helper()
	if a.C != ref.C {
		t.Fatalf("seed %d: counters %+v, want %+v", seed, a.C, ref.C)
	}
	if !maps.Equal(a.edges, ref.edges) {
		t.Fatalf("seed %d: edges %v, want %v", seed, a.edges, ref.edges)
	}
	if !maps.EqualFunc(a.pageEdges, ref.pageEdges, maps.Equal) {
		t.Fatalf("seed %d: page edges %v, want %v", seed, a.pageEdges, ref.pageEdges)
	}
	written := 0
	for _, w := range a.lastWriter.Range {
		if *w != guest.NoTID {
			written++
		}
	}
	if written != len(ref.lastWriter) {
		t.Fatalf("seed %d: %d written variables, want %d", seed, written, len(ref.lastWriter))
	}
	for key, w := range ref.lastWriter {
		if got := *a.lastWriter.Cell(key); got != w {
			t.Fatalf("seed %d: last writer of %#x = %d, want %d", seed, key, got, w)
		}
	}
}

// TestBlockStoreMatchesReference is the commgraph equivalence property:
// on random access sequences the profiler records exactly the naive
// map-backed reference's graph, counters and cycles.
func TestBlockStoreMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		ops := genOps(rand.New(rand.NewSource(seed)), 300)
		ref := newRef()

		clock := &stats.Clock{}
		a := New(clock, stats.DefaultCosts())
		for _, o := range ops {
			ref.observe(o.tid, o.addr, o.write)
			a.OnAccess(o.tid, 1, o.addr, o.size, o.write)
		}

		checkAgainstRef(t, seed, a, ref)
		if clock.Cycles() != ref.cycles {
			t.Fatalf("seed %d: cycles %d, want %d", seed, clock.Cycles(), ref.cycles)
		}
	}
}
