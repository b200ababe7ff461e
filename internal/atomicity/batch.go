// Batch-vectorized kernel for the AVIO-style atomicity detector.
//
// Coalescing soundness: region ids change only at lock acquire/release,
// and every sync hook drains the pipeline first, so a thread's region is
// fixed across one drained batch. For a run of same-thread/same-kind
// accesses to one 8-byte block, the head access settles the interleaving
// state, after which every tail access is a no-op on it:
//
//   - In a region (reg != 0) the head leaves the local record open as
//     (tid, reg, kind) with remoteValid == false; a tail access re-checks
//     an empty remote slot (no report) and re-opens the identical record.
//   - Outside a region the head either closed this thread's record, left
//     a remote thread's record annotated (the first-interleaver slot is
//     sticky), or found nothing — all states a repeat of the same access
//     cannot change.
//
// Tail records therefore contribute exactly their Reads/Writes count and
// per-access charge — which is what the kernel retires in bulk.
//
// Singleton records are retired in-kernel whenever the AVIO step provably
// cannot report and the variable was touched before: the only reporting
// branch requires an open local record of the same (thread, region) with
// a pending remote access (vs.remoteValid). Every other step on a touched
// variable is a bounded field update, which the kernel performs directly
// via the same state-machine code; records that could report or that
// touch a fresh variable fall back to the scalar hook and are counted.
package atomicity

import "repro/internal/analysis"

// vecStats mirrors the other detectors' kernel bookkeeping, kept out of
// Counters so findings stay byte-identical across dispatch modes.
type vecStats struct {
	coalesced uint64
	fallbacks uint64
}

// VectorStats implements analysis.VectorStatser.
func (d *Detector) VectorStats() analysis.VectorStats {
	return analysis.VectorStats{Coalesced: d.vec.coalesced, Fallbacks: d.vec.fallbacks}
}

// OnAccessGroups implements analysis.GroupedBatchAnalysis. Charging gates
// on BatchCoalescedRecord exactly as in the FastTrack kernel: 0 (default
// model) charges tail records their scalar AnalysisFast + contention,
// nonzero charges the vectorized per-record cost instead.
func (d *Detector) OnAccessGroups(recs []analysis.AccessRecord, groups []analysis.AccessGroup) {
	vecCost := d.costs.BatchCoalescedRecord
	blockMask := uint64(1)<<BlockShift - 1
	for _, g := range groups {
		for i := g.Start; i < g.End; {
			r := &recs[i]
			first := r.Addr &^ blockMask
			if (r.Addr+uint64(r.Size)-1)&^blockMask != first {
				// Block-straddling access: per-block interleaving state.
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
				// Singleton: retire in-kernel unless the step could report
				// or touch a fresh variable (see the package comment).
				if vs := d.vars.Cell(first); vs.touched {
					reg := d.region(r.TID).region
					if !(vs.lastTID == r.TID && vs.lastRegion == reg &&
						reg != 0 && vs.remoteValid) {
						if r.Write {
							d.C.Writes++
						} else {
							d.C.Reads++
						}
						d.vec.coalesced++
						if vecCost != 0 {
							d.clock.Charge(vecCost)
						} else {
							d.clock.Charge(d.costs.AnalysisFast + d.contention())
						}
						d.access(r.TID, r.PC, first, r.Write)
						i = j
						continue
					}
				}
				// Fresh variable or potential report: scalar hook.
				d.vec.fallbacks++
				if c := d.costs.BatchPerRecord; c != 0 {
					d.clock.Charge(c)
				}
				d.OnAccess(r.TID, r.PC, r.Addr, r.Size, r.Write)
				i = j
				continue
			}
			// Head through the scalar hook (single block, so OnAccess is
			// exactly one count + charge + state-machine step).
			d.OnAccess(r.TID, r.PC, r.Addr, r.Size, r.Write)
			if n := uint64(j - i - 1); n > 0 {
				if r.Write {
					d.C.Writes += n
				} else {
					d.C.Reads += n
				}
				d.vec.coalesced += n
				if vecCost != 0 {
					d.clock.Charge(n * vecCost)
				} else {
					d.clock.Charge(n * (d.costs.AnalysisFast + d.contention()))
				}
			}
			i = j
		}
	}
}

// OnPhaseReconcile implements analysis.PhaseReconciler: the split-phase
// reconciliation merge of phased dispatch (Doppel-style split epochs).
// Banked records arrive in canonical (seq, addr, kind) order and strictly
// inside one synchronization-free window (reconciliation precedes every
// sync event), so region tracking observes the same access-in-region
// interleavings inline delivery would have.
func (d *Detector) OnPhaseReconcile(recs []analysis.AccessRecord, groups []analysis.AccessGroup) {
	d.OnAccessGroups(recs, groups)
}
