// Batch-vectorized kernel for the FastTrack detector.
//
// The deferred pipeline hands analyses seq-ordered batches; the vectorized
// pipeline additionally annotates each batch with its contiguous same-page
// groups. This file exploits that shape: the metadata chunk covering a
// group's page is hoisted once per group, the acting thread's vector clock
// once per run, and runs of same-thread/same-block/same-kind records are
// retired by ONE epoch comparison — FastTrack's write/read rules guarantee
// that after the head access the whole tail is same-epoch, so the tail is
// pure counting.
//
// Soundness of the coalesce (why the tail is provably same-epoch): a
// thread's epoch can only advance at a synchronization event, every sync
// hook drains the pipeline first, so no sync separates two records of one
// batch. After any scalar write by thread t on block b, vs.w == E(t)
// (every write path ends with vs.w = e); a subsequent (t, b, write) record
// therefore takes WRITE SAME EPOCH. After any scalar read by t on b,
// either vs.r == E(t) with no read VC, or the read VC's t-entry equals
// C_t(t) (READ SHARED sets it, READ SHARE seeds it, READ EXCLUSIVE sets
// vs.r = e) — a subsequent (t, b, read) record takes READ SAME EPOCH.
// Both fast paths return before touching wpc/rpc, so the tail changes no
// state, reports nothing, and bumps exactly {Reads|Writes, SameEpoch}.
//
// Singleton records (no run to coalesce — the common shape when every
// lock region touches each variable once) are retired by a hoisted probe
// against the group's shadow chunk and the acting thread's clock, both
// already resident from the group/run hoists. The probe retires the two
// O(1) epoch cases exactly as the scalar rules would:
//
//   - SAME EPOCH (read or write): no state changes, {Reads|Writes,
//     SameEpoch} bump — one epoch comparison.
//   - ORDERED EPOCH, race-free: vs has no read VC and both vs.w and vs.r
//     happen-before C_t, so the scalar rules would report nothing and end
//     with vs.{w|r} = E(t) and the PC updated — two epoch-vs-clock
//     comparisons and two stores, all against hoisted state.
//
// Anything else falls back to the scalar hook and is counted: accesses
// straddling an 8-byte block boundary, fresh cells (lazy materialization
// accounting stays with the scalar path), read-VC slow paths, and any
// comparison that could report a race.
package fasttrack

import (
	"repro/internal/analysis"
	"repro/internal/vclock"
)

// VectorStats implements analysis.VectorStatser.
func (d *Detector) VectorStats() analysis.VectorStats {
	return analysis.VectorStats{Coalesced: d.vecCoalesced, Fallbacks: d.vecFallbacks}
}

// OnAccessGroups implements analysis.GroupedBatchAnalysis. Records are
// processed strictly in index (= global seq) order; groups only license
// hoisting. Charging is observationally gated on the cost model:
// BatchCoalescedRecord == 0 (the default model) makes every retired
// record charge its exact scalar cost — contention + AnalysisFast, what
// replaying it through OnAccess would have charged — so findings,
// counters AND cycles are byte-identical to inline and scalar-deferred.
// A nonzero BatchCoalescedRecord (stats.DispatchCosts) charges that per
// coalesced record instead: the amortization BENCH_7 measures.
func (d *Detector) OnAccessGroups(recs []analysis.AccessRecord, groups []analysis.AccessGroup) {
	vecCost := d.costs.BatchCoalescedRecord
	hoister, _ := d.vars.(chunkHoister)
	for _, g := range groups {
		var chunk *varChunk
		if hoister != nil {
			// One chunk fetch serves the whole group: chunkBits+BlockShift
			// == vm.PageShift, so a chunk covers exactly the group's page.
			chunk = hoister.chunkFor(BlockAddr(recs[g.Start].Addr))
		}
		for i := g.Start; i < g.End; {
			r := &recs[i]
			first := BlockAddr(r.Addr)
			if BlockAddr(r.Addr+uint64(r.Size)-1) != first {
				// Block-straddling access: per-block rules; scalar hook.
				d.scalarFallback(r)
				i++
				continue
			}
			t := vclock.TID(r.TID)
			// Extend the run: same thread, same kind, same single block.
			j := i + 1
			for j < g.End {
				n := &recs[j]
				if n.TID != r.TID || n.Write != r.Write ||
					BlockAddr(n.Addr) != first ||
					BlockAddr(n.Addr+uint64(n.Size)-1) != first {
					break
				}
				j++
			}
			if n := uint64(j - i - 1); n > 0 {
				// Head arbitrates the state transition through the scalar
				// rules; the tail is same-epoch by the argument above.
				d.clock.Charge(d.contention())
				if r.Write {
					d.write(t, r.PC, first)
					d.C.Writes += n
				} else {
					d.read(t, r.PC, first)
					d.C.Reads += n
				}
				d.C.SameEpoch += n
				d.vecCoalesced += n
				if vecCost != 0 {
					d.clock.Charge(n * vecCost)
				} else {
					d.clock.Charge(n * (d.costs.AnalysisFast + d.contention()))
				}
				i = j
				continue
			}
			// Singleton: probe the hoisted chunk for the two O(1) epoch
			// cases — same-epoch and race-free ordered-epoch — without
			// re-walking the store (see the package comment for why the
			// probe reproduces the scalar rules exactly). Fresh cells are
			// excluded so lazy materialization accounting stays with the
			// scalar path.
			if chunk != nil {
				vs := &chunk[(first>>BlockShift)&(chunkBlocks-1)]
				if !vs.fresh() {
					ct := d.tvc(t)
					e := ct.EpochOf(t)
					hit := false
					if r.Write {
						switch {
						case vs.w == e:
							// WRITE SAME EPOCH: pure counting.
							d.C.SameEpoch++
							hit = true
						case vs.rvcIdx == 0 &&
							(vs.w == vclock.None || vclock.HappensBefore(vs.w, ct)) &&
							(vs.r == vclock.None || vclock.HappensBefore(vs.r, ct)):
							// Ordered, race-free: the scalar write rule
							// would report nothing and end exactly here.
							d.C.OrderedEpoch++
							vs.w = e
							vs.wpc = r.PC
							hit = true
						}
					} else {
						switch {
						case (vs.r == e && vs.rvcIdx == 0) ||
							(vs.rvcIdx != 0 && d.rvcs[vs.rvcIdx].Get(t) == ct.Get(t)):
							// READ SAME EPOCH (either representation).
							d.C.SameEpoch++
							hit = true
						case vs.rvcIdx == 0 &&
							(vs.w == vclock.None || vclock.HappensBefore(vs.w, ct)) &&
							(vs.r == vclock.None || vclock.HappensBefore(vs.r, ct)):
							// READ EXCLUSIVE, race-free and ordered.
							d.C.OrderedEpoch++
							vs.r = e
							vs.rpc = r.PC
							hit = true
						}
					}
					if hit {
						if r.Write {
							d.C.Writes++
						} else {
							d.C.Reads++
						}
						d.vecCoalesced++
						if vecCost != 0 {
							d.clock.Charge(vecCost)
						} else {
							d.clock.Charge(d.costs.AnalysisFast + d.contention())
						}
						i++
						continue
					}
				}
			}
			// Slow path, potential report, fresh cell, or no hoist
			// available: scalar rules.
			d.scalarFallback(r)
			i++
		}
	}
}

// scalarFallback retires one record through the inline hook, counting the
// abort and charging the per-record batch hand-off the grouped path
// otherwise amortizes away (0 under the default model).
func (d *Detector) scalarFallback(r *analysis.AccessRecord) {
	d.vecFallbacks++
	if c := d.costs.BatchPerRecord; c != 0 {
		d.clock.Charge(c)
	}
	d.OnAccess(r.TID, r.PC, r.Addr, r.Size, r.Write)
}

// OnPhaseReconcile implements analysis.PhaseReconciler: the split-phase
// reconciliation merge of phased dispatch (Doppel-style split epochs).
// The records were banked in per-thread delta rings while their pages
// were hot/split and arrive k-way-merged back into canonical (seq, addr,
// kind) order, so delegating to the grouped kernel reconciles the
// FastTrack shadow state — vector clocks, epochs, read sets — exactly as
// inline delivery would have written it, one batch later.
func (d *Detector) OnPhaseReconcile(recs []analysis.AccessRecord, groups []analysis.AccessGroup) {
	d.OnAccessGroups(recs, groups)
}
