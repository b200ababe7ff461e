// Page-sharded parallel support for the AVIO-style atomicity detector.
// See the fasttrack shard file for the partitioning argument: replicas
// own disjoint pages (so disjoint interleaving state), sync events are
// broadcast (so region ids advance identically everywhere — every replica
// sees every acquire, keeping nextRegion in lockstep with the primary),
// and MergeShards restores the exact single-detector state.
//
// Split phases (phased dispatch) compose trivially: reconciliation is a
// full-pipeline drain, so banked deltas land — via OnPhaseReconcile, on
// the primary — strictly before any shard fan-out or region boundary.
package atomicity

import (
	"math"
	"sort"

	"repro/internal/analysis"
	"repro/internal/stats"
)

// NewShard implements analysis.Sharder: a fresh replica charging the
// per-shard clock, storing violations uncapped and seq-tagged.
func (d *Detector) NewShard(clock *stats.Clock) analysis.Analysis {
	s := New(clock, d.costs)
	s.shard = true
	s.MaxViolations = math.MaxInt
	return s
}

// MergeShards implements analysis.Sharder: fold the replicas' variable
// metadata, access-derived counters, vector stats and tagged violations
// into the primary. Violations replay in (seq, block) order — one access
// reports at most once per block and blocks ascend within an access —
// then the primary's cap applies. Sync-derived state (region nesting,
// Regions, SyncOps) is not merged: the primary observed every sync event
// itself.
func (d *Detector) MergeShards(shards []analysis.Analysis) {
	type taggedViolation struct {
		seq uint64
		v   Violation
	}
	var all []taggedViolation
	for _, a := range shards {
		s := a.(*Detector)
		d.C.Reads += s.C.Reads
		d.C.Writes += s.C.Writes
		d.C.Variables += s.C.Variables
		d.vec.coalesced += s.vec.coalesced
		d.vec.fallbacks += s.vec.fallbacks
		for i, v := range s.violations {
			all = append(all, taggedViolation{seq: s.vioSeqs[i], v: v})
		}
		for block, vs := range s.vars.Range {
			if vs.touched {
				*d.vars.Cell(block) = *vs
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].seq != all[j].seq {
			return all[i].seq < all[j].seq
		}
		return all[i].v.Addr < all[j].v.Addr
	})
	for _, t := range all {
		if len(d.violations) < d.MaxViolations {
			d.violations = append(d.violations, t.v)
		}
	}
}
