package analysis

import (
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/vm"
)

// AccessRecord is the compact event the deferred dispatch pipeline banks
// in its per-thread rings: one memory access, exactly as the inline hooks
// would have seen it, plus the global sequence number that recovers the
// original program order when rings from several threads are merged at a
// drain point. Shared distinguishes the two inline entry points: true for
// OnSharedAccess (the AikidoSD client surface), false for OnAccess (full
// instrumentation).
type AccessRecord struct {
	// Seq is the global push order across every thread's ring; drains
	// replay records in strictly increasing Seq, so a batched analysis
	// observes the same event order as an inline one.
	Seq  uint64
	Addr uint64
	PC   isa.PC
	TID  guest.TID
	Size uint8
	// Write and Shared pack the access kind.
	Write  bool
	Shared bool
}

// BatchAnalysis is the optional batch entry point an Analysis may
// implement to consume drained access records wholesale: one call per
// drain instead of one interface call per access. Records arrive in
// global sequence order and must be processed exactly as the equivalent
// inline OnAccess/OnSharedAccess calls would have been — the deferred
// pipeline's equivalence contract (findings and counters byte-identical
// to inline dispatch) holds only if batch consumption is a pure
// reordering of *when* the work happens, never of *what* it observes.
// Analyses that do not implement it are fed through DispatchBatch's
// one-record-at-a-time adapter and work unchanged.
type BatchAnalysis interface {
	OnAccessBatch(recs []AccessRecord)
}

// DispatchBatch feeds a drained batch to a: through OnAccessBatch when a
// implements it, otherwise through the default adapter that replays each
// record on the inline hook it was recorded from. The adapter is the
// compatibility half of the batch seam — all registered detectors work
// under deferred dispatch without knowing it exists.
func DispatchBatch(a Analysis, recs []AccessRecord) {
	if ba, ok := a.(BatchAnalysis); ok {
		ba.OnAccessBatch(recs)
		return
	}
	ReplayBatch(a, recs)
}

// ReplayBatch is the default batch adapter: each record is replayed on the
// hook it was recorded from, in order. Exported so batch-aware analyses
// (and the mux) can fall back to it per member.
func ReplayBatch(a Analysis, recs []AccessRecord) {
	for i := range recs {
		r := &recs[i]
		if r.Shared {
			a.OnSharedAccess(r.TID, r.PC, r.Addr, r.Size, r.Write)
		} else {
			a.OnAccess(r.TID, r.PC, r.Addr, r.Size, r.Write)
		}
	}
}

// OnAccessBatch implements BatchAnalysis: the mux hands the whole batch to
// each member in dispatch order (via its batch entry point when it has
// one). Per-member contiguous iteration is the locality the deferred
// pipeline's cost model amortizes: one transition into each analysis per
// drain instead of one per access per analysis.
func (m *Mux) OnAccessBatch(recs []AccessRecord) {
	for _, a := range m.list {
		DispatchBatch(a, recs)
	}
}

// AccessGroup is one contiguous same-page run inside a drained batch:
// recs[Start:End] all touch virtual page Page. Groups are cut strictly
// within seq order — the vectorized pipeline never reorders records, it
// only annotates where page locality lets a kernel hoist its shadow-chunk
// and clock lookups. Concatenating the group ranges of a batch
// reconstructs the batch exactly.
type AccessGroup struct {
	Start int
	End   int
	Page  uint64
}

// GroupedBatchAnalysis is the optional vectorized entry point an Analysis
// may implement to consume a drained batch with its page-group annotation.
// The equivalence contract is the same as BatchAnalysis's, strengthened:
// processing recs[i] in index order through OnAccessGroups must be
// observationally identical (findings, counters, charged cycles under the
// default cost model) to replaying each record on its inline hook. Groups
// are an optimization license — hoist per-page state once per group,
// coalesce runs — never a reordering license.
type GroupedBatchAnalysis interface {
	OnAccessGroups(recs []AccessRecord, groups []AccessGroup)
}

// GroupByPage cuts recs into maximal contiguous same-page runs, appending
// to dst (pass dst[:0] to reuse a scratch slice; a nil dst allocates).
// Grouping is stable: records are never moved, so cross-page order is
// preserved exactly and a group boundary falls wherever the page number
// changes between adjacent records (a record's page is that of its first
// byte; straddling accesses are grouped by their first page and handled
// by the kernels' scalar fallback).
func GroupByPage(recs []AccessRecord, dst []AccessGroup) []AccessGroup {
	i := 0
	for i < len(recs) {
		page := vm.PageNum(recs[i].Addr)
		j := i + 1
		for j < len(recs) && vm.PageNum(recs[j].Addr) == page {
			j++
		}
		dst = append(dst, AccessGroup{Start: i, End: j, Page: page})
		i = j
	}
	return dst
}

// DispatchGroups feeds a drained batch plus its page groups to a: through
// OnAccessGroups when a implements it, otherwise through DispatchBatch
// (which itself falls back to per-record replay). Analyses without a
// vectorized kernel work unchanged under vectorized dispatch.
func DispatchGroups(a Analysis, recs []AccessRecord, groups []AccessGroup) {
	if ga, ok := a.(GroupedBatchAnalysis); ok {
		ga.OnAccessGroups(recs, groups)
		return
	}
	DispatchBatch(a, recs)
}

// OnAccessGroups implements GroupedBatchAnalysis: the mux hands the batch
// and its group annotation to each member in dispatch order, letting
// vectorized members coalesce while scalar members replay record-wise.
func (m *Mux) OnAccessGroups(recs []AccessRecord, groups []AccessGroup) {
	for _, a := range m.list {
		DispatchGroups(a, recs, groups)
	}
}

// PhaseReconciler is the optional split-phase reconciliation entry point
// an Analysis may implement for phased dispatch (Doppel-style split
// epochs): the batch is the k-way merge of per-thread delta rings banked
// while their pages were split, restored to canonical (seq, addr, kind)
// order, with its page-group annotation. The contract is exactly
// GroupedBatchAnalysis's — processing recs in index order must be
// observationally identical to replaying each record on its inline hook —
// plus the caller's guarantee that every record was banked and is
// delivered under the SAME phase of its page: reconciliation always
// precedes a phase flip, demotion, sync event or address-space change.
// Implementing it separately from OnAccessGroups lets a detector
// distinguish reconcile merges from vectorized drains (for doc clarity
// and future reconcile-only optimizations); the in-tree detectors
// delegate to their grouped kernels.
type PhaseReconciler interface {
	OnPhaseReconcile(recs []AccessRecord, groups []AccessGroup)
}

// DispatchReconcile feeds a reconciliation merge to a: through
// OnPhaseReconcile when a implements it, otherwise through
// DispatchGroups (whose own ladder ends at per-record replay). Analyses
// without any batch surface work unchanged under phased dispatch.
func DispatchReconcile(a Analysis, recs []AccessRecord, groups []AccessGroup) {
	if pr, ok := a.(PhaseReconciler); ok {
		pr.OnPhaseReconcile(recs, groups)
		return
	}
	DispatchGroups(a, recs, groups)
}

// OnPhaseReconcile implements PhaseReconciler: the mux hands the merge
// and its group annotation to each member in dispatch order, so every
// member's shadow state reconciles before the phase boundary completes.
func (m *Mux) OnPhaseReconcile(recs []AccessRecord, groups []AccessGroup) {
	for _, a := range m.list {
		DispatchReconcile(a, recs, groups)
	}
}

// VectorStats reports what a vectorized kernel did with the records it was
// handed: Coalesced counts records retired by a run-length tail (one
// hoisted comparison instead of a full scalar hook), Fallbacks counts
// records the coalescer punted to the scalar hook (multi-block accesses,
// state transitions mid-run). Head records of runs count in neither.
type VectorStats struct {
	Coalesced uint64
	Fallbacks uint64
}

// VectorStatser is implemented by analyses with a vectorized kernel so the
// engine can surface coalescing effectiveness in its Result without the
// counters leaking into the analysis's own findings (which must stay
// byte-identical across dispatch modes).
type VectorStatser interface {
	VectorStats() VectorStats
}
