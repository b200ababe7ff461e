// Package lockset implements the Eraser LockSet data-race detector
// (Savage et al., TOCS 1997), the classic alternative the paper contrasts
// with happens-before detection in §7.3: LockSet checks the *locking
// discipline* — every shared variable must be consistently protected by
// some lock — rather than the happens-before order of one execution. It
// can therefore flag races that did not manifest in the observed schedule,
// at the price of false positives on lock-free synchronization.
//
// Including it demonstrates the paper's framing of Aikido as an
// analysis-agnostic framework: LockSet plugs into exactly the same
// sharing.Analysis seam as FastTrack, and runs in both full-instrumentation
// and Aikido (shared-only) configurations.
//
// The implementation follows the original algorithm: per-variable candidate
// lockset C(v) refined by intersection on each access, with the ownership
// state machine (Virgin → Exclusive → Shared → Shared-Modified) that delays
// refinement until a variable is genuinely shared.
package lockset

import (
	"fmt"
	"sort"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/varmap"
)

// BlockShift matches FastTrack's variable granularity (8-byte blocks), so
// the two detectors are comparable access-for-access.
const BlockShift = 3

// State is the Eraser ownership state of one variable.
type State uint8

// Ownership states.
const (
	// Virgin: never accessed.
	Virgin State = iota
	// Exclusive: accessed by exactly one thread so far; no refinement.
	Exclusive
	// Shared: read by multiple threads, never written since sharing;
	// refinement runs but empty locksets are not reported.
	Shared
	// SharedModified: written while shared; empty lockset ⇒ report.
	SharedModified
)

// String names the state.
func (s State) String() string {
	switch s {
	case Virgin:
		return "virgin"
	case Exclusive:
		return "exclusive"
	case Shared:
		return "shared"
	case SharedModified:
		return "shared-modified"
	}
	return "state?"
}

// Warning is one locking-discipline violation.
type Warning struct {
	Addr uint64 // variable block address
	TID  guest.TID
	PC   isa.PC
	// Write reports whether the violating access was a store.
	Write bool
}

// String formats the warning.
func (w Warning) String() string {
	kind := "read"
	if w.Write {
		kind = "write"
	}
	return fmt.Sprintf("lockset violation on %#x: unprotected %s by thread %d (pc %d)",
		w.Addr, kind, w.TID, w.PC)
}

// varState is the per-variable Eraser metadata, one pointer-free cell of
// the block store. The zero value is a Virgin (never accessed) variable.
type varState struct {
	state State
	// warned marks a recorded violation: Eraser reports the first one
	// per variable and suppresses repeats.
	warned bool
	owner  guest.TID
	cv     uint32 // candidate lockset C(v), as its dense index in sets
}

// Counters describes detector behaviour.
type Counters struct {
	Reads, Writes uint64
	Refinements   uint64 // lockset intersections performed
	SyncOps       uint64
	Variables     uint64
}

// Detector is one Eraser LockSet instance.
type Detector struct {
	clock *stats.Clock
	costs stats.CostModel

	// held[t] is locks_held(t), indexed by the (small, dense) TID and
	// grown on demand; slots default to the empty set.
	held []*lockSet
	vars *varmap.Map[varState]
	sets setTable // hash-consed locksets and their transitions (table.go)

	warnings []Warning

	// MaxWarnings caps stored warnings.
	MaxWarnings int
	liveThreads int

	C Counters
}

// defaultMaxWarnings is the default findings cap.
const defaultMaxWarnings = 1000

// New creates a detector charging analysis costs to clock.
func New(clock *stats.Clock, costs stats.CostModel) *Detector {
	return &Detector{
		clock:       clock,
		costs:       costs,
		vars:        varmap.New[varState](),
		sets:        newSetTable(),
		MaxWarnings: defaultMaxWarnings,
	}
}

// heldBy returns locks_held(t).
func (d *Detector) heldBy(t guest.TID) *lockSet {
	if uint(t) < uint(len(d.held)) {
		return d.held[t]
	}
	return d.sets.empty
}

// setHeld records locks_held(t) := ls.
func (d *Detector) setHeld(t guest.TID, ls *lockSet) {
	for int(t) >= len(d.held) {
		d.held = append(d.held, d.sets.empty)
	}
	d.held[t] = ls
}

// Warnings returns the recorded violations sorted by address.
func (d *Detector) Warnings() []Warning {
	out := make([]Warning, len(d.warnings))
	copy(out, d.warnings)
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// AddThread tracks live threads for contention accounting (same model as
// FastTrack's).
func (d *Detector) AddThread(delta int) {
	d.liveThreads += delta
	if d.liveThreads < 0 {
		d.liveThreads = 0
	}
}

func (d *Detector) contention() uint64 {
	if d.liveThreads <= 1 {
		return 0
	}
	n := d.liveThreads - 1
	if n > 8 {
		n = 8
	}
	return d.costs.AnalysisContention * uint64(n)
}

// OnAccess processes one access, per 8-byte block.
func (d *Detector) OnAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	d.clock.Charge(d.contention())
	first := addr &^ ((1 << BlockShift) - 1)
	last := (addr + uint64(size) - 1) &^ ((1 << BlockShift) - 1)
	for b := first; b <= last; b += 1 << BlockShift {
		d.access(tid, pc, b, write)
	}
}

// access implements the Eraser state machine for one variable.
func (d *Detector) access(tid guest.TID, pc isa.PC, block uint64, write bool) {
	if write {
		d.C.Writes++
	} else {
		d.C.Reads++
	}
	vs := d.vars.Cell(block)

	switch vs.state {
	case Virgin:
		d.C.Variables++
		vs.state = Exclusive
		vs.owner = tid
		vs.cv = d.heldBy(tid).idx
		d.clock.Charge(d.costs.AnalysisFast)
		return
	case Exclusive:
		if tid == vs.owner {
			d.clock.Charge(d.costs.AnalysisFast)
			return
		}
		// Second thread: start refinement from the current holder set.
		if write {
			vs.state = SharedModified
		} else {
			vs.state = Shared
		}
	case Shared:
		if write {
			vs.state = SharedModified
		}
	case SharedModified:
		// stays
	}

	// Refine C(v) ∩= locks_held(t).
	d.C.Refinements++
	d.clock.Charge(d.costs.AnalysisSlow)
	cv := d.sets.meet(d.sets.byIdx[vs.cv], d.heldBy(tid))
	vs.cv = cv.idx
	if vs.state == SharedModified && len(cv.ids) == 0 {
		d.report(vs, Warning{Addr: block, TID: tid, PC: pc, Write: write})
	}
}

// report records one warning per variable (Eraser reports the first
// violation and suppresses repeats).
func (d *Detector) report(vs *varState, w Warning) {
	if vs.warned {
		return
	}
	vs.warned = true
	if len(d.warnings) < d.MaxWarnings {
		d.warnings = append(d.warnings, w)
	}
}

// --- synchronization hooks (sharing.Analysis + guest hook seam) ------------

// OnAcquire adds the lock to locks_held(t).
func (d *Detector) OnAcquire(tid guest.TID, lock int64) {
	d.C.SyncOps++
	d.clock.Charge(d.costs.AnalysisSync)
	d.setHeld(tid, d.sets.withLock(d.heldBy(tid), lock))
}

// OnRelease removes the lock from locks_held(t).
func (d *Detector) OnRelease(tid guest.TID, lock int64) {
	d.C.SyncOps++
	d.clock.Charge(d.costs.AnalysisSync)
	d.setHeld(tid, d.sets.withoutLock(d.heldBy(tid), lock))
}

// OnFork is a no-op: Eraser has no happens-before notion. Present so the
// detector satisfies the same hook seam as FastTrack.
func (d *Detector) OnFork(parent, child guest.TID) { d.C.SyncOps++ }

// OnJoin is a no-op (see OnFork).
func (d *Detector) OnJoin(joiner, child guest.TID) { d.C.SyncOps++ }

// OnBarrierWait is a no-op (see OnFork).
func (d *Detector) OnBarrierWait(tid guest.TID, id int64) { d.C.SyncOps++ }

// OnBarrierRelease is a no-op (see OnFork).
func (d *Detector) OnBarrierRelease(tid guest.TID, id int64) { d.C.SyncOps++ }

// OnSharedAccess adapts the detector to the sharing.Analysis interface
// (Aikido mode).
func (d *Detector) OnSharedAccess(tid guest.TID, pc isa.PC, addr uint64, size uint8, write bool) {
	d.OnAccess(tid, pc, addr, size, write)
}
