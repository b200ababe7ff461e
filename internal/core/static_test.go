package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/parsec"
	"repro/internal/sharing"
	"repro/internal/staticanalysis"
	"repro/internal/workload"
)

// requireSameFindings asserts two runs observed the same program behaviour
// and produced identical findings. Cycles are deliberately NOT compared:
// the static pre-pass exists to change them (pruned faults, pre-seeded
// pages) while leaving everything an analysis can see untouched.
func requireSameFindings(t *testing.T, label string, dyn, st *Result) {
	t.Helper()
	if dyn.ExitCode != st.ExitCode || dyn.Console != st.Console {
		t.Errorf("%s: guest behaviour diverges: exit %d/%d console %q/%q",
			label, dyn.ExitCode, st.ExitCode, dyn.Console, st.Console)
	}
	if !reflect.DeepEqual(dyn.AnalysisNames(), st.AnalysisNames()) {
		t.Fatalf("%s: analysis sets diverge: %v vs %v", label, dyn.AnalysisNames(), st.AnalysisNames())
	}
	for _, name := range dyn.AnalysisNames() {
		fd, fs := dyn.Findings[name], st.Findings[name]
		if !reflect.DeepEqual(fd.Strings(), fs.Strings()) {
			t.Errorf("%s/%s: findings diverge:\ndynamic: %v\nstatic:  %v",
				label, name, fd.Strings(), fs.Strings())
		}
	}
}

// TestStaticFindingsIdenticalOnParsec is the tentpole soundness contract:
// for every PARSEC model, a run with the static privacy pre-pass on
// reports exactly the findings of the same run with it off. The matrix is
// non-vacuous: at least one cell must actually prune.
func TestStaticFindingsIdenticalOnParsec(t *testing.T) {
	var pruned uint64
	for _, bench := range parsec.All() {
		bench = bench.WithScale(0.25)
		prog, err := workload.Build(bench.Spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(ModeAikidoFastTrack)
		dyn := runConfig(t, prog, cfg)
		cfg.Static = true
		st := runConfig(t, prog, cfg)
		if st.StaticFallback != "" {
			t.Fatalf("%s: unexpected fallback %q", bench.Name, st.StaticFallback)
		}
		if st.Static == nil {
			t.Fatalf("%s: Static summary missing", bench.Name)
		}
		requireSameFindings(t, bench.Name, dyn, st)
		pruned += st.SD.PCsStaticallyPruned
	}
	if pruned == 0 {
		t.Error("no cell pruned a single PC — the equivalence matrix is vacuous")
	}
}

// TestStaticVerifyCleanOnMatrix runs the tripwire verify mode on the first
// model: every pruned PC carries a hard-fail assertion that it never
// observes a Shared page, and none may fire on a sound pass.
func TestStaticVerifyCleanOnMatrix(t *testing.T) {
	bench := parsec.All()[0].WithScale(0.25)
	prog, err := workload.Build(bench.Spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeAikidoFastTrack)
	cfg.StaticVerify = true
	res := runConfig(t, prog, cfg)
	if res.StaticFallback != "" {
		t.Fatalf("unexpected fallback %q", res.StaticFallback)
	}
	if res.SD.PCsStaticallyPruned == 0 {
		t.Fatal("verify run pruned nothing — the assertion is vacuous")
	}
	if res.SD.StaticTripwires != 0 {
		t.Errorf("%d tripwires on a sound pass", res.SD.StaticTripwires)
	}
}

// TestStaticPropertyRandomSchedules is the property test: across random
// lock-disciplined (and deliberately racy) workload schedules, findings
// with the pass on are identical to the pass off, and verify mode never
// trips. Seeded — the schedule set is deterministic.
func TestStaticPropertyRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(0x57A71C))
	for i := 0; i < 20; i++ {
		s := workload.Spec{
			Name:         "staticprop",
			Threads:      1 + rng.Intn(4),
			Iters:        1 + rng.Intn(16),
			AluOps:       rng.Intn(4),
			PrivateOps:   rng.Intn(5),
			PrivatePages: 1 + rng.Intn(3),
		}
		if rng.Intn(2) == 0 {
			s.SharedOps = 1 + rng.Intn(3)
			s.SharedPeriod = 1 + rng.Intn(3)
			s.Locks = rng.Intn(3)
			s.SharedWritePct = rng.Intn(101)
		}
		if rng.Intn(3) == 0 {
			s.RacyOps = 1 + rng.Intn(2)
			s.RacyPeriod = 1 + rng.Intn(4)
		}
		if rng.Intn(4) == 0 {
			s.BarrierPeriod = 1 + rng.Intn(5)
		}
		prog, err := workload.Build(s)
		if err != nil {
			t.Fatalf("spec %+v: %v", s, err)
		}
		cfg := DefaultConfig(ModeAikidoFastTrack)
		dyn, err := Run(prog, cfg)
		if err != nil {
			t.Fatalf("spec %+v: %v", s, err)
		}
		cfg.StaticVerify = true
		st, err := Run(prog, cfg)
		if err != nil {
			t.Fatalf("spec %+v (verify): %v", s, err)
		}
		requireSameFindings(t, s.Name, dyn, st)
		if st.SD.StaticTripwires != 0 {
			t.Errorf("spec %+v: %d tripwires on a sound pass", s, st.SD.StaticTripwires)
		}
	}
}

// TestStaticSeamFaultDegrades is the degradation ladder: an injected
// error or panic on the static seam must leave the run byte-identical to
// the pass being off — unpruned dynamic-only path — with only the
// fallback reason recording that anything happened.
func TestStaticSeamFaultDegrades(t *testing.T) {
	bench := parsec.All()[0].WithScale(0.25)
	prog, err := workload.Build(bench.Spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeAikidoFastTrack)
	plain, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ rule, want string }{
		{"error:static@1", "static seam fault"},
		{"panic:static@1", "static pass panic"},
	} {
		cfg := cfg
		cfg.Static = true
		cfg.Chaos = mustPlan(t, tc.rule)
		fallen, err := Run(prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.rule, err)
		}
		if !strings.Contains(fallen.StaticFallback, tc.want) {
			t.Fatalf("%s: StaticFallback = %q, want substring %q", tc.rule, fallen.StaticFallback, tc.want)
		}
		if fallen.Static != nil || fallen.SD.PCsStaticallyPruned != 0 {
			t.Fatalf("%s: degraded run still applied a summary", tc.rule)
		}
		fallen.StaticFallback = ""
		if !reflect.DeepEqual(plain, fallen) {
			t.Errorf("%s: degraded run diverges from the pass being off", tc.rule)
		}
	}
}

// TestStaticRetireObserverForcesUnpruned: a retire observer (taint's
// register-dataflow half) watches every retired instruction, so pruning
// would silently starve it — selecting one forces the unpruned path.
func TestStaticRetireObserverForcesUnpruned(t *testing.T) {
	prog := sharedProgram(40, true)
	cfg := DefaultConfig(ModeAikidoFastTrack)
	cfg.Static = true
	cfg.Analyses = []string{"taint", "fasttrack"}
	res, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.StaticFallback, "retire observer") {
		t.Fatalf("StaticFallback = %q, want retire-observer reason", res.StaticFallback)
	}
	if res.Static != nil || res.SD.PCsStaticallyPruned != 0 {
		t.Error("retire-observer run still pruned")
	}
}

// TestStaticPruningSavesCycles is the amortization claim on a startup-
// dominated private workload: pre-seeded pages trade a fault for a
// hypercall and pruned PCs skip instrumentation, so the static run is
// strictly cheaper with identical findings.
func TestStaticPruningSavesCycles(t *testing.T) {
	spec := workload.Spec{
		Name: "startup", Threads: 8, Iters: 4,
		PrivateOps: 4, PrivatePages: 2, BarrierPeriod: 2,
	}
	prog, err := workload.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeAikidoFastTrack)
	dyn, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Static = true
	st, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameFindings(t, spec.Name, dyn, st)
	if st.SD.PagesPreSeeded == 0 {
		t.Fatal("no pages pre-seeded — the amortization claim is vacuous")
	}
	if st.Cycles >= dyn.Cycles {
		t.Errorf("static run not cheaper: %d >= %d cycles (preseeded=%d pruned=%d)",
			st.Cycles, dyn.Cycles, st.SD.PagesPreSeeded, st.SD.PCsStaticallyPruned)
	}
}

// refutedSummary marks every PC of prog ProvenPrivate — a deliberately
// wrong proof, applied directly to the detector to exercise the tripwire
// (the real pass is sound, so a refutation cannot be provoked through it).
func refutedSummary(n int) *staticanalysis.Summary {
	sum := &staticanalysis.Summary{Class: make([]staticanalysis.Class, n), StackClean: true}
	for i := range sum.Class {
		sum.Class[i] = staticanalysis.ProvenPrivate
	}
	sum.PrunedPCs = n
	return sum
}

// TestStaticTripwireSelfHeals: in normal mode a refuted proof is counted,
// the PC un-pruned and instrumented — findings identical to the dynamic
// run, nothing lost. The page protections were the safety net all along.
func TestStaticTripwireSelfHeals(t *testing.T) {
	prog := sharedProgram(60, false)
	cfg := DefaultConfig(ModeAikidoFastTrack)
	// Fine quantum: the threads interleave inside the loop, so the racy
	// counter keeps racing after its page goes Shared (same setup as
	// TestRacyCounterCaughtByBothDetectors).
	cfg.Engine.Quantum = 50
	dyn, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SD.ApplyStaticSummary(refutedSummary(len(prog.Code)), false)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.SD.StaticTripwires == 0 {
		t.Fatal("refuted proof fired no tripwire")
	}
	requireSameFindings(t, "self-heal", dyn, st)
	if len(racesOf(st)) == 0 {
		t.Error("self-healed run lost the race finding")
	}
}

// TestStaticVerifyTripwirePanics: verify mode turns the same refutation
// into a hard failure carrying the PC and address of the broken proof.
func TestStaticVerifyTripwirePanics(t *testing.T) {
	prog := sharedProgram(40, false)
	s, err := NewSystem(prog, DefaultConfig(ModeAikidoFastTrack))
	if err != nil {
		t.Fatal(err)
	}
	s.SD.ApplyStaticSummary(refutedSummary(len(prog.Code)), true)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("verify mode swallowed a refuted proof")
		}
		tw, ok := r.(*sharing.StaticTripwireError)
		if !ok {
			t.Fatalf("panic value %T (%v), want *sharing.StaticTripwireError", r, r)
		}
		if tw.Addr == 0 {
			t.Error("tripwire error carries no address")
		}
	}()
	s.Run()
	t.Fatal("run completed despite a refuted proof in verify mode")
}
