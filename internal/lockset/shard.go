// Page-sharded parallel support for the LockSet detector. See the
// fasttrack shard file for the partitioning argument: replicas own
// disjoint pages (so disjoint variable metadata), sync events are
// broadcast (so held-lock sets evolve identically everywhere), and
// MergeShards restores the exact single-detector state.
//
// Split phases (phased dispatch) compose trivially: reconciliation is a
// full-pipeline drain, so banked deltas land — via OnPhaseReconcile, on
// the primary — strictly before any shard fan-out or sync broadcast.
package lockset

import (
	"math"
	"sort"

	"repro/internal/analysis"
	"repro/internal/stats"
)

// NewShard implements analysis.Sharder: a fresh replica charging the
// per-shard clock, storing warnings uncapped and seq-tagged.
func (d *Detector) NewShard(clock *stats.Clock) analysis.Analysis {
	s := New(clock, d.costs)
	s.shard = true
	s.MaxWarnings = math.MaxInt
	return s
}

// MergeShards implements analysis.Sharder: fold the replicas' variable
// metadata, access-derived counters, vector stats and tagged warnings
// into the primary. Candidate locksets re-intern into the primary's
// table: a cell holds an index into its replica's table, so the set is
// resolved there and interned by content. Warnings replay in (seq,
// block) order — one access warns at most once per block and blocks
// ascend within an access — then the primary's cap applies. Sync-derived state (held sets, SyncOps) is not
// merged: the primary observed every sync event itself.
func (d *Detector) MergeShards(shards []analysis.Analysis) {
	type taggedWarning struct {
		seq uint64
		w   Warning
	}
	var all []taggedWarning
	for _, a := range shards {
		s := a.(*Detector)
		d.C.Reads += s.C.Reads
		d.C.Writes += s.C.Writes
		d.C.Refinements += s.C.Refinements
		d.C.Variables += s.C.Variables
		d.vec.coalesced += s.vec.coalesced
		d.vec.fallbacks += s.vec.fallbacks
		for i, w := range s.warnings {
			all = append(all, taggedWarning{seq: s.warnSeqs[i], w: w})
		}
		for block, vs := range s.vars.Range {
			if vs.state != Virgin {
				*d.vars.Cell(block) = varState{
					state:  vs.state,
					warned: vs.warned,
					owner:  vs.owner,
					cv:     d.sets.intern(s.sets.byIdx[vs.cv].ids).idx,
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].seq != all[j].seq {
			return all[i].seq < all[j].seq
		}
		return all[i].w.Addr < all[j].w.Addr
	})
	for _, t := range all {
		if len(d.warnings) < d.MaxWarnings {
			d.warnings = append(d.warnings, t.w)
		}
	}
}
