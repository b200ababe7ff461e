package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/parsec"
	"repro/internal/sharing"
	"repro/internal/stats"
	"repro/internal/workload"
)

// nopAnalysisCore is an inert analysis for driving the pipeline directly.
type nopAnalysisCore struct{ analysis.NoSync }

func (nopAnalysisCore) Name() string { return "nop" }
func (nopAnalysisCore) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
}
func (nopAnalysisCore) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
}
func (nopAnalysisCore) SetMaxFindings(int)        {}
func (nopAnalysisCore) Report() analysis.Findings { return nil }

// recordingAnalysis captures drained batches through the batch entry
// point, exposing the sequence numbers the inline hooks never see.
type recordingAnalysis struct {
	nopAnalysisCore
	seqs []uint64
	tids []int32
}

func (r *recordingAnalysis) OnAccessBatch(recs []analysis.AccessRecord) {
	for _, rec := range recs {
		r.seqs = append(r.seqs, rec.Seq)
		r.tids = append(r.tids, int32(rec.TID))
	}
}

// stripDeferredCounters zeroes the only Result fields that legitimately
// differ between dispatch modes (the pipeline's own drain/record counts),
// so the remainder of two Results can be compared exactly.
func stripDeferredCounters(r *Result) *Result {
	c := *r
	c.DeferredDrains, c.DeferredRecords, c.DeferredFallbacks = 0, 0, 0
	c.DeferredGroups, c.VectorCoalesced, c.VectorFallbacks = 0, 0, 0
	c.PhaseReconciles, c.PhaseBanked = 0, 0
	return &c
}

// runDispatch runs prog under cfg with the given dispatch mode.
func runDispatch(t *testing.T, prog *isa.Program, cfg Config, d DispatchMode) *Result {
	t.Helper()
	cfg.Dispatch = d
	res, err := Run(prog, cfg)
	if err != nil {
		t.Fatalf("dispatch %v: %v", d, err)
	}
	return res
}

// requireIdentical asserts two runs are byte-identical outside the
// pipeline's own counters, and that the batched run banked records.
func requireIdentical(t *testing.T, label string, inline, deferred *Result) {
	t.Helper()
	if deferred.DeferredRecords == 0 {
		t.Errorf("%s: deferred run banked no records — the equivalence is vacuous", label)
	}
	requireSameResult(t, label, inline, deferred)
}

// requireSameResult asserts two runs are byte-identical outside the
// pipeline's own counters.
func requireSameResult(t *testing.T, label string, inline, deferred *Result) {
	t.Helper()
	in, de := stripDeferredCounters(inline), stripDeferredCounters(deferred)
	if in.Cycles != de.Cycles {
		t.Errorf("%s: cycles diverge: inline %d, deferred %d", label, in.Cycles, de.Cycles)
	}
	if in.Engine != de.Engine {
		t.Errorf("%s: engine counters diverge:\ninline:   %+v\ndeferred: %+v", label, in.Engine, de.Engine)
	}
	if in.SD != de.SD {
		t.Errorf("%s: sharing counters diverge:\ninline:   %+v\ndeferred: %+v", label, in.SD, de.SD)
	}
	if !reflect.DeepEqual(in.AnalysisNames(), de.AnalysisNames()) {
		t.Fatalf("%s: analysis sets diverge: %v vs %v", label, in.AnalysisNames(), de.AnalysisNames())
	}
	for _, name := range in.AnalysisNames() {
		fi, fd := in.Findings[name], de.Findings[name]
		if !reflect.DeepEqual(fi.Strings(), fd.Strings()) {
			t.Errorf("%s/%s: findings diverge:\ninline:   %v\ndeferred: %v",
				label, name, fi.Strings(), fd.Strings())
		}
		if fi.Summary() != fd.Summary() {
			t.Errorf("%s/%s: counters diverge:\ninline:   %s\ndeferred: %s",
				label, name, fi.Summary(), fd.Summary())
		}
	}
	if !reflect.DeepEqual(in, de) {
		t.Errorf("%s: results diverge outside the compared fields", label)
	}
}

// TestDeferredByteIdenticalOnParsec is the tentpole equivalence contract,
// end to end: for every PARSEC model and every analysis-bearing mode,
// deferred dispatch produces a Result byte-identical to inline dispatch —
// same cycles, same engine/sharing counters, same findings and analysis
// counters — under both the default single-analysis selection and a
// multi-analysis mux.
func TestDeferredByteIdenticalOnParsec(t *testing.T) {
	selections := [][]string{nil, {"fasttrack", "lockset", "atomicity", "commgraph"}}
	for _, bench := range parsec.All() {
		bench := bench.WithScale(0.25)
		prog, err := workload.Build(bench.Spec)
		if err != nil {
			t.Fatalf("%s: build: %v", bench.Name, err)
		}
		for _, mode := range []Mode{ModeFastTrackFull, ModeAikidoFastTrack} {
			for _, sel := range selections {
				cfg := DefaultConfig(mode)
				cfg.Analyses = sel
				label := bench.Name + "/" + mode.String()
				if sel != nil {
					label += "/mux"
				}
				inline := runDispatch(t, prog, cfg, DispatchInline)
				deferred := runDispatch(t, prog, cfg, DispatchDeferred)
				requireIdentical(t, label, inline, deferred)
			}
		}
	}
}

// TestDeferredByteIdenticalWithEpochs covers the hardest drain point: an
// armed epoch clock reads the simulated clock between accesses, so the
// pipeline drains before every boundary check — and demotion-heavy
// workloads (where sweeps actually fire and re-arm pages) must still be
// byte-identical to inline dispatch.
func TestDeferredByteIdenticalWithEpochs(t *testing.T) {
	phased := workload.PhasedSpec{
		Name: "phased", Threads: 8, Phases: 6, PhaseIters: 200,
		PagesPerPart: 2, OpsPerIter: 8, AluOps: 6, WarmupOps: 1,
	}
	migratory := phased
	migratory.Name = "migratory"
	migratory.MigrateStride = 1

	for _, src := range []workload.Source{phased, migratory} {
		prog, err := src.Compile()
		if err != nil {
			t.Fatalf("%s: %v", src.SourceName(), err)
		}
		cfg := DefaultConfig(ModeAikidoFastTrack)
		cfg.Epoch = sharing.DefaultEpochPolicy()
		inline := runDispatch(t, prog, cfg, DispatchInline)
		deferred := runDispatch(t, prog, cfg, DispatchDeferred)
		if deferred.SD.PagesDemotedPrivate == 0 {
			t.Errorf("%s: no demotion under the deferred run — the epoch coverage is vacuous", src.SourceName())
		}
		if inline.EpochTicks != deferred.EpochTicks {
			t.Errorf("%s: epoch ticks diverge: inline %d, deferred %d",
				src.SourceName(), inline.EpochTicks, deferred.EpochTicks)
		}
		requireIdentical(t, src.SourceName()+"/epoch", inline, deferred)
	}
}

// TestDeferredDrainPoints pins the pipeline's observable behaviour: a
// deferred run drains at least once, replays every banked record exactly
// once, and a ring-full burst (more than ringCap accesses with no
// intervening synchronization) forces a mid-run drain.
func TestDeferredDrainPoints(t *testing.T) {
	// A two-thread program whose workers each perform >> ringCap shared
	// accesses between lock operations.
	b := isa.NewBuilder("ringfull")
	page := b.Global(4096, 4096)
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("w", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.MovImm(isa.R5, 1)
	b.ThreadCreate("w", isa.R5)
	b.Mov(isa.R10, isa.R0)
	b.ThreadJoin(isa.R9)
	b.Mov(isa.R9, isa.R10)
	b.ThreadJoin(isa.R9)
	b.Halt()
	b.Label("w")
	b.Shl(isa.R4, isa.R0, 3)
	b.MovImm(isa.R5, int64(page))
	b.Add(isa.R4, isa.R4, isa.R5)
	b.MovImm(isa.R3, 1)
	b.LoopN(isa.R2, 3*ringCap, func(b *isa.Builder) {
		b.Store(isa.R4, 0, isa.R3)
	})
	b.Halt()
	prog := b.MustFinish()

	cfg := DefaultConfig(ModeFastTrackFull)
	cfg.Engine.Quantum = 100000 // one long quantum: no scheduling breaks
	res := runDispatch(t, prog, cfg, DispatchDeferred)
	if res.DeferredRecords == 0 || res.DeferredDrains == 0 {
		t.Fatalf("pipeline inactive: drains=%d records=%d", res.DeferredDrains, res.DeferredRecords)
	}
	// Every analyzed access was banked exactly once: FastTrack's
	// read+write count equals the replayed record count.
	c := ftOf(res)
	if c.Reads+c.Writes != res.DeferredRecords {
		t.Errorf("replayed %d records, analysis processed %d accesses",
			res.DeferredRecords, c.Reads+c.Writes)
	}
	// The worker bodies bank 3×ringCap accesses back-to-back, so at least
	// one drain fired on ring-full (not at a sync boundary or exit).
	if res.DeferredDrains < 3 {
		t.Errorf("drains = %d, want ring-full drains on a %d-access burst", res.DeferredDrains, 3*ringCap)
	}
	inline := runDispatch(t, prog, cfg, DispatchInline)
	requireIdentical(t, "ringfull", inline, res)
}

// TestDeferredTrailingAccessesBeforeExit pins the end-of-run drain
// against the cycle snapshot: accesses between the program's LAST
// synchronization event and SysExit (which fires no thread-exit hook)
// sit in the ring until the final drain, and their analysis charges must
// still land before Result.Cycles is captured. A regression here makes
// deferred runs look cheaper than inline by exactly the residual batch's
// analysis work.
func TestDeferredTrailingAccessesBeforeExit(t *testing.T) {
	b := isa.NewBuilder("trailing")
	arr := b.Global(4096, 4096)
	b.MovImm(isa.R5, 0)
	b.ThreadCreate("w", isa.R5)
	b.Mov(isa.R9, isa.R0)
	b.ThreadJoin(isa.R9)
	// After the last sync event: a burst of analyzed accesses, then exit.
	b.MovImm(isa.R3, 7)
	b.LoopN(isa.R2, 30, func(b *isa.Builder) {
		b.StoreAbs(arr+8, isa.R3)
		b.LoadAbs(isa.R4, arr+16)
	})
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	b.Label("w")
	b.MovImm(isa.R3, 1)
	b.StoreAbs(arr+8, isa.R3)
	b.Halt()
	prog := b.MustFinish()

	cfg := DefaultConfig(ModeFastTrackFull)
	inline := runDispatch(t, prog, cfg, DispatchInline)
	deferred := runDispatch(t, prog, cfg, DispatchDeferred)
	requireIdentical(t, "trailing", inline, deferred)
}

// TestDeferredVMARemovalDrainsFirst pins the drain-before-address-space-
// change ordering: a store banked between mmap and munmap must replay
// while the region's shadow state still exists. The pipeline's VMA
// listener is registered at the FRONT of the process's listener list; if
// it ran after Umbra's (registration order), the munmap would drop the
// shadow first and memcheck would invent an invalid-access report inline
// dispatch never produces.
func TestDeferredVMARemovalDrainsFirst(t *testing.T) {
	b := isa.NewBuilder("mapdrain")
	b.MovImm(isa.R0, 4096)
	b.MovImm(isa.R1, int64(pagetable.ProtRW))
	b.Syscall(isa.SysMmap)
	b.Mov(isa.R4, isa.R0)
	b.MovImm(isa.R5, 1)
	b.Store(isa.R4, 0, isa.R5) // banked; no sync before the munmap
	b.Mov(isa.R0, isa.R4)
	b.Syscall(isa.SysMunmap)
	b.MovImm(isa.R0, 0)
	b.Syscall(isa.SysExit)
	prog := b.MustFinish()

	cfg := DefaultConfig(ModeFastTrackFull)
	cfg.Analyses = []string{"memcheck"}
	inline := runDispatch(t, prog, cfg, DispatchInline)
	deferred := runDispatch(t, prog, cfg, DispatchDeferred)
	mc := deferred.AnalysisFindings("memcheck")
	if mc.Len() != inline.AnalysisFindings("memcheck").Len() {
		t.Errorf("memcheck findings diverge: inline %v, deferred %v",
			inline.AnalysisFindings("memcheck").Strings(), mc.Strings())
	}
	requireIdentical(t, "mapdrain", inline, deferred)
}

// TestDeferredRetireObserverFallsBack: an analysis that watches every
// retired instruction (taint's register-dataflow half) interleaves a
// second event stream the pipeline cannot defer around, so the system
// silently falls back to inline dispatch — same findings, no banked
// records.
func TestDeferredRetireObserverFallsBack(t *testing.T) {
	prog := sharedProgram(40, false)
	cfg := DefaultConfig(ModeFastTrackFull)
	cfg.Analyses = []string{"taint", "fasttrack"}
	res := runDispatch(t, prog, cfg, DispatchDeferred)
	if res.DeferredDrains != 0 || res.DeferredRecords != 0 {
		t.Errorf("retire-observer selection engaged the pipeline (drains=%d records=%d)",
			res.DeferredDrains, res.DeferredRecords)
	}
	inline := runDispatch(t, prog, cfg, DispatchInline)
	if !reflect.DeepEqual(inline, res) {
		t.Error("fallback run diverges from inline dispatch")
	}
}

// TestDeferredRingPushNoAllocs is the tentpole's 0-alloc guard: the
// steady-state ring push — the only work deferred dispatch adds to the
// instrumented hot path — must allocate nothing once the thread's ring
// exists.
func TestDeferredRingPushNoAllocs(t *testing.T) {
	p := newPipeline(&nopAnalysisCore{}, 1, &stats.Clock{}, stats.DefaultCosts())
	p.push(2, 10, 0x1000, 8, true, true) // allocate the ring
	if n := testing.AllocsPerRun(1000, func() {
		p.push(2, 10, 0x1000, 8, true, true)
		// Keep the ring from filling: a drain inside AllocsPerRun would
		// measure the (amortized, allocation-reusing) merge path instead
		// of the push.
		if p.pending > ringCap-8 {
			p.drain()
		}
	}); n != 0 {
		t.Errorf("ring push allocates %.2f objects per access, want 0", n)
	}
	// And the drain itself is allocation-free once the scratch buffer has
	// grown to the working-set size.
	for i := 0; i < ringCap-1; i++ {
		p.push(2, 10, 0x1000, 8, true, true)
	}
	p.drain()
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			p.push(2, 10, 0x1000, 8, i%2 == 0, true)
		}
		p.drain()
	}); n != 0 {
		t.Errorf("steady-state drain allocates %.2f objects per batch, want 0", n)
	}
}

// TestDeferredMergeRestoresGlobalOrder drives the pipeline directly with
// interleaved pushes from several threads and checks the drained batch
// comes back in global sequence order.
func TestDeferredMergeRestoresGlobalOrder(t *testing.T) {
	rec := &recordingAnalysis{}
	p := newPipeline(rec, 1, &stats.Clock{}, stats.DefaultCosts())
	// Interleave three threads in runs, as quanta would.
	order := []int32{1, 1, 1, 3, 3, 2, 1, 2, 2, 2, 3, 1}
	for i, tid := range order {
		p.push(guest.TID(tid), isa.PC(i), uint64(0x1000+i*8), 8, false, true)
	}
	p.drain()
	if len(rec.seqs) != len(order) {
		t.Fatalf("replayed %d records, pushed %d", len(rec.seqs), len(order))
	}
	for i, s := range rec.seqs {
		if s != uint64(i) {
			t.Fatalf("record %d replayed with seq %d: order not restored (%v)", i, s, rec.seqs)
		}
	}
	if !reflect.DeepEqual(rec.tids, order) {
		t.Errorf("replayed TID order %v, want %v", rec.tids, order)
	}
}

// TestDispatchModeParsing pins the flag surface.
func TestDispatchModeParsing(t *testing.T) {
	for arg, want := range map[string]DispatchMode{
		"": DispatchInline, "inline": DispatchInline, "deferred": DispatchDeferred,
		"vectorized": DispatchVectorized, "phased": DispatchPhased,
	} {
		got, err := ParseDispatchMode(arg)
		if err != nil || got != want {
			t.Errorf("ParseDispatchMode(%q) = %v, %v", arg, got, err)
		}
	}
	// "parallel" named a dispatch mode that no longer exists.
	for _, arg := range []string{"sideways", "parallel"} {
		if _, err := ParseDispatchMode(arg); err == nil || !strings.Contains(err.Error(), "unknown dispatch mode") {
			t.Errorf("ParseDispatchMode(%q): err = %v, want an unknown dispatch mode error", arg, err)
		}
	}
	if DispatchInline.String() != "inline" || DispatchDeferred.String() != "deferred" ||
		DispatchVectorized.String() != "vectorized" || DispatchPhased.String() != "phased" {
		t.Error("dispatch mode names diverge from the flag spellings")
	}
}
