package core

// Fault isolation: typed budget errors and the fault-injection seam
// wiring. A System with budgets (Config.MaxCycles / Config.MaxWall) or a
// chaos plan (Config.Chaos) installs one per-quantum check on the DBI
// engine's existing scheduling boundary — when neither is configured the
// engine pays a single nil check and calibrated baselines are untouched.
//
// The injection seams (see internal/faultinject):
//
//	guest    — checkQuantum below, once per scheduling quantum.
//	provider — chaosProvider around Provider.RearmPage; the panic is
//	           recovered by the sharing detector's degradation path
//	           (epoch demotion disabled for that page, run continues).
//	analysis — chaosAnalysis, the wrapper over the analysis mux; an
//	           empty plan leaves every byte-identity contract intact.
//	static   — applyStatic, once before the static privacy pre-pass.

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/faultinject"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/provider"
)

// BudgetError is the typed error a run returns when it exceeds a
// configured resource budget. errors.As against *BudgetError classifies
// it through any wrapping (the runner maps it to FailBudget).
type BudgetError struct {
	// Resource names the exhausted budget: "cycles" (simulated) or
	// "wall" (real time).
	Resource string
	// Limit is the configured budget and Used the observed consumption,
	// both in the resource's unit (cycles, or nanoseconds for wall).
	Limit uint64
	Used  uint64
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: %s budget exceeded (used %d of %d)", e.Resource, e.Used, e.Limit)
}

// checkQuantum is the per-quantum budget check and chaos guest seam,
// installed as the engine's OnQuantum hook when any of the three is
// configured. The budget checks only READ the clock on the existing
// scheduling boundary — they never charge cycles — so enabling a budget
// cannot perturb a run that stays within it. The simulated-cycle check
// is deterministic (same quantum boundaries, same clock values at any
// worker count); the wall check is inherently not, and deterministic
// reports must not enable MaxWall.
func (s *System) checkQuantum() error {
	if max := s.Cfg.MaxCycles; max > 0 {
		if used := s.Clock.Cycles(); used > max {
			return &BudgetError{Resource: "cycles", Limit: max, Used: used}
		}
	}
	if max := s.Cfg.MaxWall; max > 0 && !s.wallStart.IsZero() {
		if el := time.Since(s.wallStart); el > max { //detlint:ok MaxWall is a safety budget, documented as non-deterministic
			return &BudgetError{Resource: "wall", Limit: uint64(max), Used: uint64(el)}
		}
	}
	return s.inj.Fire(faultinject.SeamGuest)
}

// armQuantumCheck installs checkQuantum when budgets or chaos ask for it.
func (s *System) armQuantumCheck() {
	if s.Cfg.MaxCycles > 0 || s.Cfg.MaxWall > 0 || s.inj != nil {
		s.Engine.OnQuantum = s.checkQuantum
	}
}

// chaosProvider wraps the protection provider with the provider seam on
// RearmPage — the epoch re-privatization primitive the degradation
// ladder protects. Every fault kind manifests as a panic here (the
// Provider interface has no error returns); sharing.Detector recovers
// it around the rearm call, leaves the page Shared and protected, and
// disables further demotion for it — so provider-seam faults degrade
// service, never abort the run and never corrupt shadow state.
type chaosProvider struct {
	provider.Interface
	inj *faultinject.Injector
}

// RearmPage fires the provider seam, then forwards.
func (c *chaosProvider) RearmPage(vpn uint64, owner guest.TID) {
	if err := c.inj.Fire(faultinject.SeamProvider); err != nil {
		panic(err)
	}
	c.Interface.RearmPage(vpn, owner)
}

// chaosAnalysis is the analysis seam: a wrapper over the analysis mux,
// firing once per analysis-bound access event. Error-kind faults escalate
// to panics (the hooks return nothing); the panicked value is the typed
// *faultinject.Fault, which the runner's containment recovers into a
// CellError.
type chaosAnalysis struct {
	analysis.Analysis
	inj *faultinject.Injector
}

func (c *chaosAnalysis) fire() {
	if err := c.inj.Fire(faultinject.SeamAnalysis); err != nil {
		panic(err)
	}
}

// OnAccess implements analysis.Analysis.
func (c *chaosAnalysis) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	c.fire()
	c.Analysis.OnAccess(tid, pc, addr, size, write)
}

// OnSharedAccess implements analysis.Analysis.
func (c *chaosAnalysis) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	c.fire()
	c.Analysis.OnSharedAccess(tid, pc, addr, size, write)
}
