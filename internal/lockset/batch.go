// Batch-vectorized kernel for the Eraser LockSet detector.
//
// Coalescing soundness: within one drained batch no synchronization event
// can interleave (every sync hook drains first), so locks_held(t) — an
// interned, immutable set — has one dense index for the whole batch. For a
// run of same-thread/same-kind accesses to one 8-byte block, the head
// access arbitrates the Eraser state machine; afterwards the state is
// stable for the rest of the run:
//
//   - Exclusive (owner == tid, which the head guarantees): every tail
//     access is the owner fast path — counters plus AnalysisFast.
//   - Shared / SharedModified: the head set C(v) := C(v) ∩ locks_held(t),
//     so C(v) ⊆ locks_held(t); the tail's re-intersection is idempotent
//     (interning returns the identical set) and any empty-set warning
//     was already recorded for this address (report dedups per variable).
//     Each tail access is therefore exactly one Refinements count plus
//     AnalysisSlow — pure counting, no state change, no new report.
//
// A Shared-state run of writes cannot exist: the head write would have
// promoted the variable to SharedModified. The tail branch is chosen from
// the POST-head state.
//
// Singleton records are retired in-kernel when the Eraser step is provably
// a no-op on detector state (locks_held(t) is an interned set, fixed for
// the whole batch, so each check is an index/field comparison):
//
//   - Exclusive with owner == tid: the owner fast path, pure counting;
//   - SharedModified with C(v) == locks_held(t): the intersection is the
//     identity (interning), and the empty-set warning either cannot fire
//     or was already recorded for this address — Refinements += 1 only;
//   - Shared reads with C(v) == locks_held(t): same identity refinement,
//     and Shared never reports.
//
// Everything else — fresh (Virgin) variables, ownership transitions,
// Shared writes (promotion), genuine intersections — falls back to the
// scalar hook and is counted.
package lockset

import (
	"repro/internal/analysis"
	"repro/internal/guest"
)

// vecCoalesced/vecFallbacks live on the Detector (see Detector doc) via
// this embedded helper so the findings surface stays untouched.
type vecStats struct {
	coalesced uint64
	fallbacks uint64
}

// VectorStats implements analysis.VectorStatser.
func (d *Detector) VectorStats() analysis.VectorStats {
	return analysis.VectorStats{Coalesced: d.vec.coalesced, Fallbacks: d.vec.fallbacks}
}

// OnAccessGroups implements analysis.GroupedBatchAnalysis. Records are
// processed in index order; page groups bound the run search. Charging is
// gated exactly as in the FastTrack kernel: BatchCoalescedRecord == 0
// (default model) charges every tail record its scalar cost, keeping
// cycles byte-identical across dispatch modes; a nonzero value charges
// that per coalesced record instead.
func (d *Detector) OnAccessGroups(recs []analysis.AccessRecord, groups []analysis.AccessGroup) {
	vecCost := d.costs.BatchCoalescedRecord
	blockMask := uint64(1)<<BlockShift - 1
	for _, g := range groups {
		for i := g.Start; i < g.End; {
			r := &recs[i]
			first := r.Addr &^ blockMask
			if (r.Addr+uint64(r.Size)-1)&^blockMask != first {
				// Block-straddling access: per-block state machine; scalar.
				d.vec.fallbacks++
				if c := d.costs.BatchPerRecord; c != 0 {
					d.clock.Charge(c)
				}
				d.OnAccess(r.TID, r.PC, r.Addr, r.Size, r.Write)
				i++
				continue
			}
			j := i + 1
			for j < g.End {
				n := &recs[j]
				if n.TID != r.TID || n.Write != r.Write ||
					n.Addr&^blockMask != first ||
					(n.Addr+uint64(n.Size)-1)&^blockMask != first {
					break
				}
				j++
			}
			if j == i+1 {
				// Singleton: probe for the provably state-neutral Eraser
				// steps (see the package comment).
				if vs := d.vars.Cell(first); vs.state != Virgin {
					scalar := uint64(0)
					switch {
					case vs.state == Exclusive && vs.owner == r.TID:
						scalar = d.costs.AnalysisFast
					case vs.cv == d.heldBy(r.TID).idx &&
						(vs.state == Shared && !r.Write ||
							vs.state == SharedModified && (vs.cv != d.sets.empty.idx || vs.warned)):
						// Identity refinement, no new report possible.
						d.C.Refinements++
						scalar = d.costs.AnalysisSlow
					}
					if scalar != 0 {
						if r.Write {
							d.C.Writes++
						} else {
							d.C.Reads++
						}
						d.vec.coalesced++
						if vecCost != 0 {
							d.clock.Charge(vecCost)
						} else {
							d.clock.Charge(d.contention() + scalar)
						}
						i = j
						continue
					}
				}
				// State transition (or fresh variable): scalar hook.
				d.vec.fallbacks++
				if c := d.costs.BatchPerRecord; c != 0 {
					d.clock.Charge(c)
				}
				d.OnAccess(r.TID, r.PC, r.Addr, r.Size, r.Write)
				i = j
				continue
			}
			// Head through the scalar rules (charging exactly what
			// OnAccess would: contention once, then the state machine).
			d.clock.Charge(d.contention())
			d.access(r.TID, r.PC, first, r.Write)
			if n := uint64(j - i - 1); n > 0 {
				d.retireTail(r.TID, first, r.Write, n, vecCost)
			}
			i = j
		}
	}
}

// retireTail bulk-retires the n tail records of a coalesced run against
// the post-head state of the variable.
func (d *Detector) retireTail(tid guest.TID, block uint64, write bool, n, vecCost uint64) {
	if write {
		d.C.Writes += n
	} else {
		d.C.Reads += n
	}
	vs := d.vars.Cell(block) // the head just touched it
	scalar := d.costs.AnalysisFast
	if vs.state != Exclusive {
		// Idempotent refinement tail (see package comment).
		d.C.Refinements += n
		scalar = d.costs.AnalysisSlow
	}
	d.vec.coalesced += n
	if vecCost != 0 {
		d.clock.Charge(n * vecCost)
	} else {
		d.clock.Charge(n * (d.contention() + scalar))
	}
}

// OnPhaseReconcile implements analysis.PhaseReconciler: the split-phase
// reconciliation merge of phased dispatch (Doppel-style split epochs).
// Banked records arrive in canonical (seq, addr, kind) order, so the
// grouped kernel folds them into the per-address lockset state exactly
// as inline delivery would have — locksets only shrink at sync events,
// and reconciliation always completes before the next one is delivered.
func (d *Detector) OnPhaseReconcile(recs []analysis.AccessRecord, groups []analysis.AccessGroup) {
	d.OnAccessGroups(recs, groups)
}
