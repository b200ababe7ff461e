package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/faultinject"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/vm"
)

// DispatchMode selects how access events travel from the instrumented hot
// paths (AikidoSD's PreAccess, the full-instrumentation tool) to the
// selected analyses.
type DispatchMode uint8

// Dispatch modes.
const (
	// DispatchInline calls every analysis synchronously per access — the
	// classic clean-call shape, and the default.
	DispatchInline DispatchMode = iota
	// DispatchDeferred banks each access as a compact record in the
	// acting thread's fixed-size ring and replays the rings through the
	// analyses in global sequence order at deterministic drain points:
	// every synchronization event (lock, fork, join, exit, barrier,
	// thread-count change), every address-space change, every armed
	// epoch-boundary check, ring-full, and end of run. Drains anchor to
	// the same event boundaries inline dispatch orders accesses around,
	// so findings and simulated counters are byte-identical to
	// DispatchInline; what changes is *when* the analysis work happens —
	// once per batch instead of once per access — which is the transition
	// cost the BENCH_5 amortization experiment measures.
	DispatchDeferred
	// DispatchVectorized is deferred dispatch with batch-vectorized
	// analysis kernels: each drained merge is additionally cut into
	// maximal contiguous same-page groups (stable — records are never
	// reordered, and every sync/VMA/ring-full drain boundary flushes all
	// open groups) and handed to analyses through the grouped entry point
	// (analysis.GroupedBatchAnalysis), which lets a kernel hoist its
	// shadow-chunk and clock lookups once per group and run-length
	// coalesce same-state record runs against one hoisted comparison.
	// Findings and counters stay byte-identical to inline and to plain
	// deferred; under the default cost model cycles are byte-identical
	// too (kernels charge exact scalar-equivalent costs until
	// CostModel.BatchCoalescedRecord enables vector charging — the
	// amortization BENCH_7 measures).
	DispatchVectorized
	// DispatchPhased is the Doppel-style split-phase refinement (phases
	// borrowed from Narula et al.'s Doppel: contended records go through
	// per-core split-phase stores, reconciled at the phase boundary). It
	// targets the workloads every other refinement left at exactly 1.00×:
	// pages written by many threads every epoch, which never demote and
	// pay the full per-access analysis transition forever. Under phased
	// dispatch the sharing detector's epoch sweep classifies such pages as
	// hot (sharing.PhasePolicy) and flips them SPLIT: their accesses are
	// banked in the acting thread's private delta ring — one compact
	// record store, charged CostModel.PhaseBankRecord instead of the
	// per-analysis clean call — while every other access is delivered
	// inline exactly as DispatchInline would. At the next drain point
	// (sync event, VMA change, epoch sweep, ring-full, end of run) the
	// banked deltas k-way-merge back into canonical (seq, addr, kind)
	// order and RECONCILE into the analyses' shadow state through the
	// grouped entry points, charging CostModel.PhaseReconcileBase per
	// analysis. Non-hot workloads never bank, so their findings, counters
	// AND cycles are byte-identical to inline; hot workloads keep
	// byte-identical findings (the reconcile replays the exact inline
	// order) while their epoch-boundary positions may shift with the
	// re-timed charges — the cycle win BENCH_9 measures. A chaos fault at
	// the reconcile seam degrades exactly like a drain-seam fault: the
	// merged batch replays inline and the pipeline latches inline.
	DispatchPhased
)

// String names the mode as the -dispatch flags spell it.
func (m DispatchMode) String() string {
	switch m {
	case DispatchInline:
		return "inline"
	case DispatchDeferred:
		return "deferred"
	case DispatchVectorized:
		return "vectorized"
	case DispatchPhased:
		return "phased"
	}
	return "dispatch?"
}

// ParseDispatchMode resolves a -dispatch flag value.
func ParseDispatchMode(s string) (DispatchMode, error) {
	switch s {
	case "", "inline":
		return DispatchInline, nil
	case "deferred":
		return DispatchDeferred, nil
	case "vectorized":
		return DispatchVectorized, nil
	case "phased":
		return DispatchPhased, nil
	}
	return DispatchInline, fmt.Errorf("core: unknown dispatch mode %q (want inline, deferred, vectorized or phased)", s)
}

// ringCap is the fixed per-thread ring capacity. A full ring forces a
// drain, so the constant bounds both the pipeline's memory and how far
// analysis work can lag the access stream.
const ringCap = 256

// accessRing is one thread's event bank: a fixed-capacity buffer plus a
// read cursor the merge advances during a drain.
type accessRing struct {
	buf []analysis.AccessRecord
	n   int // records banked
	pos int // merge cursor (reset with n at the end of a drain)
}

// pipeline is the deferred dispatch engine: it implements
// analysis.Analysis over the multiplexed analysis stack, banking access
// events in per-thread rings and replaying them in global sequence order
// at the drain points listed on DispatchDeferred. It also satisfies
// guest.VMAListener so address-space changes (which some analyses observe
// out of band) drain before taking effect, and sharing.Analysis
// structurally (OnSharedAccess), so AikidoSD drives it unchanged.
type pipeline struct {
	an    analysis.Analysis
	nmem  uint64 // hosted analyses, for the batch cost charges
	clock *stats.Clock
	costs stats.CostModel

	rings   []*accessRing // indexed by TID (dense, starting at 1)
	pending int
	seq     uint64
	scratch []analysis.AccessRecord // merge buffer, reused across drains

	// vectorize routes drained batches through the grouped entry point
	// (DispatchVectorized); groups is the page-group scratch reused across
	// drains, and nscalar counts hosted analyses WITHOUT a vectorized
	// kernel — they still walk records one at a time inside the batch, so
	// the BatchPerRecord hand-off is charged only for them (grouped
	// kernels charge their own per-record costs).
	vectorize bool
	groups    []analysis.AccessGroup
	nscalar   uint64

	// inj is the chaos injector's drain seam (nil without a plan), and
	// inline the graceful-degradation latch: after a failed drain the
	// pipeline stops banking and delivers every further access straight
	// through, exactly as inline dispatch would (see drain).
	inj    *faultinject.Injector
	inline bool

	// drains/records/fallbacks/groupsN describe pipeline behaviour
	// (Result.DeferredDrains / DeferredRecords / DeferredFallbacks /
	// DeferredGroups).
	drains    uint64
	records   uint64
	fallbacks uint64
	groupsN   uint64

	// phased switches the pipeline to split-phase operation
	// (DispatchPhased): the ordinary analysis surface delivers inline and
	// only the PhaseBanker surface (OnSplitAccess — hot pages the sharing
	// detector flipped split) banks into the rings; drains become
	// reconciliation merges. preconciles counts reconcile merges and
	// precs records banked through the split phase
	// (Result.PhaseReconciles / PhaseBanked).
	phased      bool
	preconciles uint64
	precs       uint64
}

// newPipeline builds the deferred pipeline over the (possibly multiplexed)
// analysis stack. nmembers is the hosted-analysis count the batch cost
// model scales by.
func newPipeline(an analysis.Analysis, nmembers int, clock *stats.Clock, costs stats.CostModel) *pipeline {
	return &pipeline{an: an, nmem: uint64(nmembers), clock: clock, costs: costs}
}

// push banks one access record in tid's ring. The steady-state path — ring
// and rings table already sized — is a bounds check, a struct store and
// three integer updates: it allocates nothing and charges nothing (the
// few emitted stores are part of the instrumentation sequence the host
// path already charges for).
func (p *pipeline) push(tid guest.TID, pc isa.PC, addr uint64, size uint8, write, shared bool) {
	if p.inline {
		// Degraded mode after a failed drain: deliver directly, exactly
		// as inline dispatch would (including its per-event transition
		// charge, so a cost-model run stays comparable to pure inline).
		p.chargeInline(1)
		if shared {
			p.an.OnSharedAccess(tid, pc, addr, size, write)
		} else {
			p.an.OnAccess(tid, pc, addr, size, write)
		}
		return
	}
	i := int(tid)
	if i >= len(p.rings) || p.rings[i] == nil {
		p.growRings(i)
	}
	r := p.rings[i]
	r.buf[r.n] = analysis.AccessRecord{
		Seq: p.seq, Addr: addr, PC: pc, TID: tid, Size: size, Write: write, Shared: shared,
	}
	p.seq++
	r.n++
	p.pending++
	if r.n == ringCap {
		p.drain()
	}
}

// growRings sizes the ring table for TID i and allocates its ring — the
// once-per-thread slow path kept out of push so the hot path stays small.
func (p *pipeline) growRings(i int) {
	for i >= len(p.rings) {
		p.rings = append(p.rings, nil)
	}
	if p.rings[i] == nil {
		p.rings[i] = &accessRing{buf: make([]analysis.AccessRecord, ringCap)}
	}
}

// drain merges every ring's banked records into global sequence order and
// replays them through the analysis stack in one batch. Because Seq is
// assigned in push order and each ring is FIFO, a k-way merge by head
// sequence number reconstructs exactly the order inline dispatch would
// have delivered — the determinism argument is that simple. Threads run
// in quanta, so the merge copies long single-ring runs: it compares ring
// heads once per run, not once per record.
func (p *pipeline) drain() {
	if p.pending == 0 {
		return
	}
	if cap(p.scratch) < p.pending {
		p.scratch = make([]analysis.AccessRecord, 0, len(p.rings)*ringCap)
	}
	out := p.scratch[:0]
	for {
		// Find the ring with the smallest unconsumed sequence number and
		// the next-smallest head elsewhere (the run limit).
		best, limit := -1, ^uint64(0)
		var bestSeq uint64
		for i, r := range p.rings {
			if r == nil || r.pos >= r.n {
				continue
			}
			s := r.buf[r.pos].Seq
			switch {
			case best < 0 || s < bestSeq:
				if best >= 0 && bestSeq < limit {
					limit = bestSeq
				}
				best, bestSeq = i, s
			case s < limit:
				limit = s
			}
		}
		if best < 0 {
			break
		}
		r := p.rings[best]
		for r.pos < r.n && r.buf[r.pos].Seq < limit {
			out = append(out, r.buf[r.pos])
			r.pos++
		}
	}
	for _, r := range p.rings {
		if r != nil {
			r.n, r.pos = 0, 0
		}
	}
	p.pending = 0
	p.scratch = out[:0]

	// Chaos drain seam (reconcile seam under phased dispatch — it fires
	// only here, with deltas pending, so every crossing is a real merge).
	// An error-kind fault here models a broken batch path: the response
	// is graceful degradation, not abort. The merged batch is replayed
	// record-by-record on the inline hooks — the exact sequence order the
	// batched delivery would have used, so no record is lost or
	// duplicated and findings stay identical — and the pipeline latches
	// inline for the remainder of the run. The error fires BEFORE any
	// batched delivery starts, never mid-batch: a half-consumed batch
	// could not be replayed without double-delivery. (Panic-kind faults
	// unwind to the runner's containment instead; the cell is discarded
	// whole, so partial delivery cannot corrupt a report.)
	seam := faultinject.SeamDrain
	if p.phased {
		seam = faultinject.SeamReconcile
	}
	if err := p.inj.Fire(seam); err != nil {
		p.degradeInline(out)
		return
	}

	if p.phased {
		// Reconciliation merge: fold the banked split-phase deltas into
		// canonical shadow state through the grouped entry points, in the
		// exact (seq, addr, kind) order the k-way merge restored. The
		// transition cost is one reconcile entry per analysis per merge;
		// members without a grouped kernel still walk records one at a
		// time and pay the per-record hand-off.
		p.drains++
		p.records += uint64(len(out))
		p.preconciles++
		p.groups = analysis.GroupByPage(out, p.groups[:0])
		p.groupsN += uint64(len(p.groups))
		if c := p.nmem*p.costs.PhaseReconcileBase +
			p.nscalar*p.costs.BatchPerRecord*uint64(len(out)); c > 0 {
			p.clock.Charge(c)
		}
		analysis.DispatchReconcile(p.an, out, p.groups)
		return
	}

	p.drains++
	p.records += uint64(len(out))
	if p.vectorize {
		// Vectorized delivery: annotate the merged batch with its stable
		// page groups (records stay exactly where the merge put them) and
		// hand both to the grouped entry point. The transition cost is one
		// runtime entry per analysis per drain plus a group-open per
		// analysis per group; the per-record hand-off is charged only for
		// members without a grouped kernel — vectorized kernels charge
		// their own per-record costs (scalar-equivalent under the default
		// model, BatchCoalescedRecord under vector charging).
		p.groups = analysis.GroupByPage(out, p.groups[:0])
		p.groupsN += uint64(len(p.groups))
		if c := p.nmem*(p.costs.BatchDrainBase+p.costs.BatchGroupBase*uint64(len(p.groups))) +
			p.nscalar*p.costs.BatchPerRecord*uint64(len(out)); c > 0 {
			p.clock.Charge(c)
		}
		analysis.DispatchGroups(p.an, out, p.groups)
		return
	}

	// The batched transition cost: one runtime entry per analysis per
	// drain plus a per-record hand-off, against inline dispatch's
	// per-access-per-analysis clean call. Zero under the default model,
	// which keeps deferred dispatch byte-identical to inline.
	if c := p.costs.BatchDrainBase + p.costs.BatchPerRecord*uint64(len(out)); c > 0 {
		p.clock.Charge(p.nmem * c)
	}
	analysis.DispatchBatch(p.an, out)
}

// degradeInline is the graceful-degradation path shared by the drain and
// reconcile chaos seams: replay the merged batch record-by-record on the
// inline hooks and latch the pipeline inline for the remainder of the
// run.
func (p *pipeline) degradeInline(out []analysis.AccessRecord) {
	p.inline = true
	p.fallbacks++
	p.chargeInline(uint64(len(out)))
	analysis.ReplayBatch(p.an, out)
}

// chargeInline charges the inline per-event transition cost for n events
// delivered through the degraded (post-fallback) path — what the
// inlineCharger would have charged had the run been inline from the
// start. Zero under the default model.
func (p *pipeline) chargeInline(n uint64) {
	if c := p.costs.AnalysisDispatch; c > 0 {
		p.clock.Charge(c * p.nmem * n)
	}
}

// Name implements analysis.Analysis.
func (p *pipeline) Name() string {
	if p.phased {
		return "phased(" + p.an.Name() + ")"
	}
	return "deferred(" + p.an.Name() + ")"
}

// OnAccess implements analysis.Analysis (full-instrumentation events).
// Under phased dispatch the ordinary analysis surface delivers inline —
// only split pages bank, through OnSplitAccess — so joined-page behaviour
// (findings, counters, cycles) is byte-identical to DispatchInline.
func (p *pipeline) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	if p.phased {
		p.chargeInline(1)
		p.an.OnAccess(tid, pc, addr, size, write)
		return
	}
	p.push(tid, pc, addr, size, write, false)
}

// OnSharedAccess implements analysis.Analysis (and, structurally,
// sharing.Analysis — the AikidoSD client surface).
func (p *pipeline) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	if p.phased {
		p.chargeInline(1)
		p.an.OnSharedAccess(tid, pc, addr, size, write)
		return
	}
	p.push(tid, pc, addr, size, write, true)
}

// OnSplitAccess implements sharing.PhaseBanker: the split-phase delivery
// surface for accesses to pages the sharing detector classified hot. The
// steady-state path banks one compact record in the acting thread's
// private ring — a struct store charged CostModel.PhaseBankRecord once,
// against the per-analysis clean call inline delivery pays — and the
// next drain point reconciles it in canonical order. Two guarded exits
// keep the soundness argument airtight: after a reconcile-seam fault the
// pipeline has latched inline and the access is delivered directly, and
// an access straddling a 4 KiB page boundary (its tail page may be
// joined, demoted, or mid-flip) forces an immediate reconcile and then
// delivers inline — the boundary access is always analyzed, in order,
// on both pages it touches.
func (p *pipeline) OnSplitAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	if p.inline {
		p.chargeInline(1)
		p.an.OnSharedAccess(tid, pc, addr, size, write)
		return
	}
	if size > 1 && vm.PageNum(addr) != vm.PageNum(addr+uint64(size)-1) {
		p.drain()
		p.chargeInline(1)
		p.an.OnSharedAccess(tid, pc, addr, size, write)
		return
	}
	if c := p.costs.PhaseBankRecord; c > 0 {
		p.clock.Charge(c)
	}
	p.precs++
	p.push(tid, pc, addr, size, write, true)
}

// The synchronization hooks all drain first: a sync event carries
// happens-before edges the analyses order accesses around, so every banked
// access that precedes it in program order must be replayed before the
// event is delivered. That ordering is exactly what makes deferred
// findings identical to inline ones.

// OnAcquire implements analysis.Analysis.
func (p *pipeline) OnAcquire(tid guest.TID, lock int64) {
	p.drain()
	p.an.OnAcquire(tid, lock)
}

// OnRelease implements analysis.Analysis.
func (p *pipeline) OnRelease(tid guest.TID, lock int64) {
	p.drain()
	p.an.OnRelease(tid, lock)
}

// OnFork implements analysis.Analysis.
func (p *pipeline) OnFork(parent, child guest.TID) {
	p.drain()
	p.an.OnFork(parent, child)
}

// OnJoin implements analysis.Analysis.
func (p *pipeline) OnJoin(joiner, child guest.TID) {
	p.drain()
	p.an.OnJoin(joiner, child)
}

// OnExit implements analysis.Analysis.
func (p *pipeline) OnExit(tid guest.TID) {
	p.drain()
	p.an.OnExit(tid)
}

// OnBarrierWait implements analysis.Analysis.
func (p *pipeline) OnBarrierWait(tid guest.TID, id int64) {
	p.drain()
	p.an.OnBarrierWait(tid, id)
}

// OnBarrierRelease implements analysis.Analysis.
func (p *pipeline) OnBarrierRelease(tid guest.TID, id int64) {
	p.drain()
	p.an.OnBarrierRelease(tid, id)
}

// AddThread implements analysis.Analysis. The drain keeps the analyses'
// live-thread contention models exact: banked accesses happened under the
// old count.
func (p *pipeline) AddThread(delta int) {
	p.drain()
	p.an.AddThread(delta)
}

// SetMaxFindings implements analysis.Analysis.
func (p *pipeline) SetMaxFindings(n int) { p.an.SetMaxFindings(n) }

// Report implements analysis.Analysis: the end-of-run drain point.
func (p *pipeline) Report() analysis.Findings {
	p.drain()
	return p.an.Report()
}

// VMAAdded implements guest.VMAListener: analyses that track the address
// space (memcheck) observe VMA changes out of band, so banked accesses
// recorded under the old address-space state replay before the change is
// visible.
func (p *pipeline) VMAAdded(v *guest.VMA) { p.drain() }

// VMARemoved implements guest.VMAListener.
func (p *pipeline) VMARemoved(v *guest.VMA) { p.drain() }

// inlineCharger wraps the analysis stack with the per-event
// AnalysisDispatch transition charge — the inline clean-call cost the
// deferred pipeline amortizes. It is wired only when the cost model sets
// AnalysisDispatch (the default model keeps it 0 and the stack unwrapped),
// so calibrated baselines never see it.
type inlineCharger struct {
	analysis.Analysis
	clock *stats.Clock
	cost  uint64 // AnalysisDispatch × hosted analyses
}

// OnAccess implements analysis.Analysis.
func (c *inlineCharger) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	c.clock.Charge(c.cost)
	c.Analysis.OnAccess(tid, pc, addr, size, write)
}

// OnSharedAccess implements analysis.Analysis.
func (c *inlineCharger) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	c.clock.Charge(c.cost)
	c.Analysis.OnSharedAccess(tid, pc, addr, size, write)
}

// wrapDispatch places the configured dispatch layer over the assembled
// analysis stack. Deferred dispatch requires the access stream to be the
// analyses' only per-instruction input: an analysis watching every retired
// instruction (the taint tracker's register-dataflow half) interleaves two
// streams the pipeline cannot reorder safely, so such selections fall back
// to inline dispatch.
func (s *System) wrapDispatch(an analysis.Analysis) analysis.Analysis {
	if an == nil {
		return nil
	}
	n := len(s.Analyses)
	if s.Cfg.Dispatch == DispatchDeferred || s.Cfg.Dispatch == DispatchVectorized ||
		s.Cfg.Dispatch == DispatchPhased {
		deferrable := true
		for _, a := range s.Analyses {
			if _, ok := asRetireObserver(a); ok {
				deferrable = false
				break
			}
		}
		if deferrable {
			mode := s.Cfg.Dispatch
			s.pipe = newPipeline(an, n, s.Clock, s.Cfg.Costs)
			s.pipe.inj = s.inj
			if mode == DispatchVectorized || mode == DispatchPhased {
				// Both deliver batches through the grouped entry points;
				// members without a grouped kernel pay the per-record
				// hand-off.
				for _, a := range s.Analyses {
					if _, ok := a.(analysis.GroupedBatchAnalysis); !ok {
						s.pipe.nscalar++
					}
				}
			}
			if mode == DispatchVectorized {
				s.pipe.vectorize = true
			}
			if mode == DispatchPhased {
				s.pipe.phased = true
			}
			// Front registration: the drain must fire before Umbra or an
			// analysis observes the VMA change (listeners are notified in
			// registration order, and Umbra registered at attach time),
			// or an munmap would drop shadow state banked accesses still
			// need. Re-entrant drains (an analysis replay growing a
			// shadow map mid-drain) are safe: pending is zeroed before
			// the batch is dispatched, so the nested call is a no-op.
			s.Process.AddVMAListenerFront(s.pipe)
			return s.pipe
		}
	}
	if s.Cfg.Costs.AnalysisDispatch > 0 {
		return &inlineCharger{Analysis: an, clock: s.Clock,
			cost: s.Cfg.Costs.AnalysisDispatch * uint64(n)}
	}
	return an
}
