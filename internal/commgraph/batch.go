// Batch-vectorized kernel for the communication-graph profiler.
//
// Coalescing soundness: observe() keys on the 8-byte-aligned address only
// (size never splits an access), so a run of same-thread/same-kind records
// on one key folds exactly:
//
//   - a write run re-stores the same lastWriter entry n times — the tail
//     is Writes += n-1 (Variables counts first-ever writes only, which the
//     head handled);
//   - a read run observes the same lastWriter entry n times — either no
//     communication (absent or self writer: Reads += n-1) or n-1 more
//     units of weight on the SAME edge and the SAME page (the writer
//     cannot change mid-run: only a write by another thread would, and
//     that would end the run).
//
// The head record goes through observe() unchanged; the tail is retired
// as bulk counter/weight arithmetic.
//
// Singleton records retire in-kernel when the step touches no graph
// state: a re-store of an existing lastWriter entry (one field update),
// or a read that carries no communication (absent or self writer). Reads
// that add edge weight and first-ever writes mutate or grow the output
// graph, so they fall back to the scalar hook and are counted.
package commgraph

import (
	"repro/internal/analysis"
	"repro/internal/guest"
	"repro/internal/vm"
)

// vecStats mirrors the other detectors' kernel bookkeeping, kept out of
// Counters so findings stay byte-identical across dispatch modes.
type vecStats struct {
	coalesced uint64
	fallbacks uint64
}

// VectorStats implements analysis.VectorStatser.
func (a *Analysis) VectorStats() analysis.VectorStats {
	return analysis.VectorStats{Coalesced: a.vec.coalesced, Fallbacks: a.vec.fallbacks}
}

// OnAccessGroups implements analysis.GroupedBatchAnalysis. Charging gates
// on BatchCoalescedRecord as in the other kernels: 0 (default model)
// charges tail records their scalar AnalysisFast, nonzero charges the
// vectorized per-record cost instead. The profiler has no multi-block
// fallback — observe() never splits an access — so every tail record is
// coalesced; only graph-growing singletons fall back.
func (a *Analysis) OnAccessGroups(recs []analysis.AccessRecord, groups []analysis.AccessGroup) {
	vecCost := a.costs.BatchCoalescedRecord
	for _, g := range groups {
		for i := g.Start; i < g.End; {
			r := &recs[i]
			key := r.Addr &^ 7
			j := i + 1
			for j < g.End {
				n := &recs[j]
				if n.TID != r.TID || n.Write != r.Write || n.Addr&^7 != key {
					break
				}
				j++
			}
			if j == i+1 {
				// Singleton: retire graph-neutral steps in-kernel (see
				// the package comment).
				lw := a.lastWriter.Cell(key)
				if r.Write && *lw != guest.NoTID {
					a.C.Writes++
					*lw = r.TID
				} else if !r.Write && (*lw == guest.NoTID || *lw == r.TID) {
					a.C.Reads++
				} else {
					// First-ever write or communicating read: scalar hook.
					a.vec.fallbacks++
					if c := a.costs.BatchPerRecord; c != 0 {
						a.clock.Charge(c)
					}
					a.observe(r.TID, r.Addr, r.Write)
					i = j
					continue
				}
				a.vec.coalesced++
				if vecCost != 0 {
					a.clock.Charge(vecCost)
				} else {
					a.clock.Charge(a.costs.AnalysisFast)
				}
				i = j
				continue
			}
			a.observe(r.TID, r.Addr, r.Write)
			if n := uint64(j - i - 1); n > 0 {
				if r.Write {
					a.C.Writes += n
				} else {
					a.C.Reads += n
					if w := *a.lastWriter.Cell(key); w != guest.NoTID && w != r.TID {
						a.C.Communications += n
						e := Edge{From: w, To: r.TID}
						a.edges[e] += n
						a.pageEdge(r.Addr, e, n)
					}
				}
				a.vec.coalesced += n
				if vecCost != 0 {
					a.clock.Charge(n * vecCost)
				} else {
					a.clock.Charge(n * a.costs.AnalysisFast)
				}
			}
			i = j
		}
	}
}

// pageEdge adds weight to the page-granular aggregate (the map walk
// observe() performs per read, done once per coalesced tail).
func (a *Analysis) pageEdge(addr uint64, e Edge, w uint64) {
	vpn := vm.PageNum(addr)
	pe := a.pageEdges[vpn]
	if pe == nil {
		pe = make(map[Edge]uint64)
		a.pageEdges[vpn] = pe
	}
	pe[e] += w
}

// OnPhaseReconcile implements analysis.PhaseReconciler: the split-phase
// reconciliation merge of phased dispatch (Doppel-style split epochs).
// Banked records arrive in canonical (seq, addr, kind) order, so
// last-writer tracking — and therefore every communication edge — is
// reconciled exactly as inline delivery would have recorded it.
func (a *Analysis) OnPhaseReconcile(recs []analysis.AccessRecord, groups []analysis.AccessGroup) {
	a.OnAccessGroups(recs, groups)
}
