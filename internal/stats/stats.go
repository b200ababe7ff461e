// Package stats provides the simulated cycle clock and the cost model that
// turns mechanism events (instructions, faults, hypercalls, instrumentation)
// into simulated time.
//
// The paper evaluates Aikido by wall-clock slowdown on a Xeon X7550. A Go
// reimplementation cannot reproduce those absolute numbers (the substrate is
// a simulator), so simulated cycles are the primary metric: every component
// charges its events to one shared Clock using the costs configured here.
// The *ratios* between runs — who wins, by what factor — are then stable,
// machine-independent, and directly comparable to the shapes in Figure 5,
// Figure 6 and Table 1. See DESIGN.md §2.
package stats

import (
	"fmt"
	"math"
)

// CostModel assigns simulated cycle costs to mechanism events. The defaults
// (DefaultCosts) are loosely calibrated so that a FastTrack-style analysis
// of every memory access lands in the paper's 50–200× slowdown band and a
// hardware page fault costs a few thousand instructions, as on real x86.
type CostModel struct {
	// NativeInstr is the base cost of retiring one instruction.
	NativeInstr uint64

	// DispatchBlock is the code-cache dispatch cost for an unlinked block
	// transition (indirect lookup); DispatchLinked is the cost when the
	// previous block was directly linked to this one; DispatchTrace is
	// the cost within a hot trace.
	DispatchBlock  uint64
	DispatchLinked uint64
	DispatchTrace  uint64

	// BuildBlockBase/BuildPerInstr model JIT-compiling a basic block into
	// the code cache; FlushBlock models deleting one cached block.
	BuildBlockBase uint64
	BuildPerInstr  uint64
	FlushBlock     uint64

	// Fault is the end-to-end cost of a page fault delivered to the guest
	// userspace handler through the hypervisor (§3.2.5).
	Fault uint64
	// Hypercall is one AikidoLib hypercall.
	Hypercall uint64
	// ShadowFill is one lazy shadow-page-table population (hidden fault)
	// under shadow paging; EPTWalk is the two-dimensional guest+EPT walk
	// paid on a TLB miss under nested paging (§3.2.2). The EPT walk is
	// pricier per miss, but nested paging never pays PTUpdateTrap.
	ShadowFill uint64
	EPTWalk    uint64
	// PTUpdateTrap is the VM exit + emulation cost of one trapped guest
	// page-table write under shadow paging (§3.2.2); nested paging
	// updates guest page tables without hypervisor involvement.
	PTUpdateTrap uint64
	// ShadowRootSwitch is the shadow-root (CR3-analogue) swap on a
	// context switch under shadow paging; EPTPSwitch is the (cheaper)
	// EPT-pointer switch under nested paging.
	ShadowRootSwitch uint64
	EPTPSwitch       uint64
	// KernelEmulation is one guest-kernel instruction emulated by the
	// hypervisor (§3.2.6).
	KernelEmulation uint64
	// ContextSwitch is a guest thread switch (including the VM exit).
	ContextSwitch uint64
	// Syscall is the base guest syscall cost.
	Syscall uint64
	// ProcessSwitch is a full process context switch (address-space
	// change), paid per switch by the DTHREADS-style processes-as-threads
	// protection provider (§7.1).
	ProcessSwitch uint64
	// Fork is one process creation, paid per "thread" by the
	// processes-as-threads provider.
	Fork uint64
	// ThreadTableSetup is the cost of cloning a per-thread page table at
	// thread creation, paid by the dOS-style modified-kernel provider
	// (§7.1, ref [3]).
	ThreadTableSetup uint64
	// KernelCheck is the modified kernel's ownership-table consultation
	// when it touches a per-thread-protected page on a thread's behalf —
	// the dOS analogue of AikidoVM's much dearer KernelEmulation (§3.2.6).
	KernelCheck uint64

	// ShadowTranslate is Umbra's app→shadow translation when the inlined
	// memoization cache hits; ShadowTranslateMiss when the lean-procedure
	// lookup runs instead (§2.2).
	ShadowTranslate     uint64
	ShadowTranslateMiss uint64
	// MirrorRedirect is the extra cost of rewriting an access to its
	// mirror address (effective-address patch or base translation).
	MirrorRedirect uint64
	// SharedCheck is the emitted shared/private branch for indirect
	// instructions (Figure 4).
	SharedCheck uint64

	// AnalysisFast is the analysis tool's per-access cost on its fast
	// path (FastTrack same-epoch); AnalysisSlow on its slow path (vector
	// clock comparison/promotion); AnalysisSync per synchronization
	// event.
	AnalysisFast uint64
	AnalysisSlow uint64
	AnalysisSync uint64
	// AnalysisContention models metadata contention: extra cycles per
	// analyzed access, scaled by (liveThreads-1)^1.3 (cache-line
	// ping-pong on shadow metadata grows superlinearly with sharers).
	// This is what makes detector overheads grow with thread count, the
	// effect visible in Table 1.
	AnalysisContention uint64
	// MirrorContention models coherence traffic on mirror pages: every
	// redirected access targets the mirror copy of *shared* data, so
	// these lines ping-pong between all cores; charged per redirect,
	// scaled by (liveThreads-1)^2. This term is why Aikido's advantage
	// shrinks at high thread counts on heavily-sharing benchmarks
	// (the fluidanimate row of Table 1).
	MirrorContention uint64
	// InstrumentedExec is the per-execution cost of the code AikidoSD
	// emits around an instrumented instruction (Figure 4): the inlined
	// app→shadow translation, the shared/private branch for indirect
	// accesses, the mirror-address computation, and the code-cache bloat
	// of the re-JITed block. Charged only by the Aikido path; the
	// full-instrumentation baseline pays ShadowTranslate inline instead.
	InstrumentedExec uint64

	// AnalysisDispatch models the per-event transition into the analysis
	// runtime under inline dispatch — the DBI clean-call economics (§2.1):
	// spilling application registers, switching to the analysis context,
	// and the i-cache/d-cache pollution of bouncing between translated
	// code and analysis code on every access. Charged per access per
	// hosted analysis. The default model keeps it 0 (its effect is folded
	// into the Analysis* terms, and every committed BENCH snapshot was
	// calibrated without it); DispatchCosts turns it on to measure what
	// deferred batching amortizes.
	AnalysisDispatch uint64
	// BatchDrainBase is the per-analysis cost of entering the analysis
	// runtime once per drained batch under deferred dispatch, and
	// BatchPerRecord the hand-off inside the drain loop, charged per
	// record per analysis (each analysis's batch loop walks the records) —
	// together the amortized counterpart of AnalysisDispatch (one
	// transition per batch, then a tight loop with warm caches). Both
	// default to 0 for the same calibration reason.
	BatchDrainBase uint64
	BatchPerRecord uint64
	// BatchGroupBase is the per-analysis cost of opening one page group
	// under vectorized dispatch: hoisting the shadow-chunk pointer and
	// epoch clock for the group's page into registers. Charged per group
	// per analysis by the grouped drain path only.
	BatchGroupBase uint64
	// BatchCoalescedRecord is the cost of retiring one record by a
	// vectorized run-length tail: the hoisted state is already in
	// registers, so a record costs one compare-and-count instead of a
	// full per-access hook. It doubles as the vector-charging switch:
	// when 0 (DefaultCosts), vectorized kernels charge the exact scalar
	// per-record costs so every byte-identity suite sees identical
	// cycles; when nonzero (DispatchCosts), a coalesced record charges
	// this instead of its AnalysisFast/Slow + contention share — the
	// amortization BENCH_7 measures. Scalar-fallback records always pay
	// full scalar freight (plus BatchPerRecord hand-off when nonzero).
	BatchCoalescedRecord uint64
	// PhaseReconcileBase and PhaseBankRecord model Doppel-style split
	// phases for hot pages, and together form the phase-charging switch.
	// During a split phase, an access to a hot page is *banked* as a
	// compact record in the acting thread's private delta ring instead of
	// entering the analysis runtime; PhaseBankRecord is that ring store —
	// one struct write into thread-local memory, no clean call, no shared
	// metadata touched — charged once per banked record (banking happens
	// once regardless of how many analyses are hosted). At a phase flip
	// (sync hook, VMA change, epoch sweep — the existing full-barrier
	// drain points) the banked deltas k-way-merge back into canonical
	// global order and replay through the analyses; PhaseReconcileBase is
	// the per-analysis cost of entering that reconciliation merge.
	// When both are 0 (DefaultCosts) nothing phase-related is charged, so
	// workloads whose pages never run hot stay byte-identical — findings,
	// counters and cycles — with phases enabled. Under DispatchCosts the
	// pair prices what split phases amortize: the per-access
	// AnalysisDispatch clean call (150 × N analyses) that hot many-writer
	// pages otherwise pay forever — the falseshare cell BENCH_9 finally
	// moves above 1.00×.
	PhaseReconcileBase uint64
	PhaseBankRecord    uint64
}

// DefaultCosts returns the calibrated default cost model.
func DefaultCosts() CostModel {
	return CostModel{
		NativeInstr:         1,
		DispatchBlock:       4,
		DispatchLinked:      1,
		DispatchTrace:       0,
		BuildBlockBase:      200,
		BuildPerInstr:       20,
		FlushBlock:          150,
		Fault:               3000,
		Hypercall:           400,
		ShadowFill:          40,
		EPTWalk:             120,
		PTUpdateTrap:        800,
		ShadowRootSwitch:    60,
		EPTPSwitch:          40,
		KernelEmulation:     1500,
		ContextSwitch:       300,
		Syscall:             150,
		ProcessSwitch:       600,
		Fork:                25000,
		ThreadTableSetup:    5000,
		KernelCheck:         40,
		ShadowTranslate:     10,
		ShadowTranslateMiss: 60,
		MirrorRedirect:      3,
		SharedCheck:         3,
		AnalysisFast:        100,
		AnalysisSlow:        300,
		AnalysisSync:        120,
		AnalysisContention:  20,
		MirrorContention:    5,
		InstrumentedExec:    40,
	}
}

// DispatchCosts returns the default model with the analysis-dispatch
// transition terms enabled: the cost model the DeferredAmortization
// experiment (BENCH_5.json) measures under. Inline dispatch pays one
// AnalysisDispatch transition per access per hosted analysis; deferred
// dispatch pays one BatchDrainBase per analysis per drain plus a
// BatchPerRecord hand-off per record — the batching amortization. The
// magnitudes follow the DBI clean-call literature: a full-context clean
// call costs on the order of a hundred cycles, while an element of an
// unrolled processing loop costs a few.
func DispatchCosts() CostModel {
	c := DefaultCosts()
	c.AnalysisDispatch = 150
	// Entering a drain loop costs the same one clean call the inline path
	// pays per access — the batching win is that the remaining records
	// ride a register-resident loop at a few cycles each.
	c.BatchDrainBase = 120
	c.BatchPerRecord = 8
	// Vectorized-kernel terms: opening a page group costs a couple of
	// dependent loads (chunk pointer, thread clock) and retiring a record
	// whose state is already hoisted costs one compare + counter update —
	// the per-element economics of an unrolled SIMD-style loop over
	// uniform metadata.
	c.BatchGroupBase = 24
	c.BatchCoalescedRecord = 4
	// Phase terms: banking one record into a thread-private delta ring is
	// one struct store into a warm cache line (no clean call, no shared
	// state), and entering the reconciliation merge at a phase boundary
	// costs the same order as any other batched entry into the analysis
	// runtime.
	c.PhaseReconcileBase = 120
	c.PhaseBankRecord = 3
	return c
}

// Clock accumulates simulated cycles. All components of one System share a
// single Clock.
type Clock struct {
	cycles uint64
}

// Charge adds n cycles.
func (c *Clock) Charge(n uint64) { c.cycles += n }

// Cycles returns the accumulated simulated time.
func (c *Clock) Cycles() uint64 { return c.cycles }

// Reset zeroes the clock.
func (c *Clock) Reset() { c.cycles = 0 }

// Slowdown returns the ratio of this clock to a baseline cycle count,
// the "slowdown vs native" metric of Figure 5 (lower is better).
func (c *Clock) Slowdown(baseline uint64) float64 {
	if baseline == 0 {
		return 0
	}
	return float64(c.cycles) / float64(baseline)
}

// Ratio is a convenience for formatting slowdown-style numbers.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Geomean returns the geometric mean of xs (ignoring non-positive values,
// which would otherwise poison the product).
func Geomean(xs []float64) float64 {
	prod := 1.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			prod *= x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// FormatX renders a slowdown like "76.25x".
func FormatX(v float64) string { return fmt.Sprintf("%.2fx", v) }

// FormatPct renders a fraction as a percentage like "12.3%".
func FormatPct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
