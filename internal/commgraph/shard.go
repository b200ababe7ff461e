// Page-sharded parallel support for the communication-graph profiler.
// observe() keys on the first 8-byte-aligned address of an access, so a
// replica's lastWriter entries, edge weights and page aggregates cover
// exactly its own pages; MergeShards is pure set union and weight
// addition. The profiler stores no capped, order-sensitive findings —
// Edges() and HotPages() sort deterministically — so no sequence tagging
// is needed.
//
// Split phases (phased dispatch) compose trivially: reconciliation is a
// full-pipeline drain, so banked deltas land — via OnPhaseReconcile, on
// the primary — strictly before any shard fan-out could observe them.
package commgraph

import (
	"repro/internal/analysis"
	"repro/internal/guest"
	"repro/internal/stats"
)

// NewShard implements analysis.Sharder.
func (a *Analysis) NewShard(clock *stats.Clock) analysis.Analysis {
	s := New(clock, a.costs)
	s.MaxEdges = a.MaxEdges
	return s
}

// MergeShards implements analysis.Sharder: union the replicas' writer
// tables, sum their edge and page-edge weights, and fold the
// access-derived counters and vector stats into the primary.
func (a *Analysis) MergeShards(shards []analysis.Analysis) {
	for _, sa := range shards {
		s := sa.(*Analysis)
		a.C.Reads += s.C.Reads
		a.C.Writes += s.C.Writes
		a.C.Communications += s.C.Communications
		a.C.Variables += s.C.Variables
		a.vec.coalesced += s.vec.coalesced
		a.vec.fallbacks += s.vec.fallbacks
		for block, w := range s.lastWriter.Range {
			if *w != guest.NoTID {
				*a.lastWriter.Cell(block) = *w
			}
		}
		for e, w := range s.edges {
			a.edges[e] += w
		}
		for vpn, pe := range s.pageEdges {
			dst := a.pageEdges[vpn]
			if dst == nil {
				dst = make(map[Edge]uint64)
				a.pageEdges[vpn] = dst
			}
			for e, w := range pe {
				dst[e] += w
			}
		}
	}
}
