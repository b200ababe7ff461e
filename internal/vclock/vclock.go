// Package vclock implements vector clocks and FastTrack epochs (paper §4.1;
// Flanagan & Freund, PLDI 2009).
//
// A vector clock VC records, per thread, the latest logical time of that
// thread that the owner has synchronized with. An epoch c@t is FastTrack's
// compressed representation of "the single access at time c by thread t" —
// most variables are accessed in a totally ordered way, so one epoch
// replaces a whole vector clock and the O(n) comparison collapses to O(1).
package vclock

import (
	"fmt"
	"strings"
)

// TID is a thread identifier. It matches guest.TID numerically but is kept
// as its own type so this package stands alone (and stays testable with
// testing/quick).
type TID int32

// Time is a logical clock value.
type Time uint32

// Epoch packs a (thread, clock) pair: c@t.
type Epoch uint64

// None is the zero epoch 0@0, FastTrack's ⊥ₑ: it happens-before everything.
const None Epoch = 0

// E constructs the epoch c@t.
func E(t TID, c Time) Epoch { return Epoch(uint64(uint32(t))<<32 | uint64(c)) }

// TID extracts the thread of the epoch.
func (e Epoch) TID() TID { return TID(uint32(e >> 32)) }

// Clock extracts the logical time of the epoch.
func (e Epoch) Clock() Time { return Time(uint32(e)) }

// String renders c@t like the FastTrack paper.
func (e Epoch) String() string { return fmt.Sprintf("%d@%d", e.Clock(), e.TID()) }

// VC is a vector clock, indexed by TID. The zero value is the empty clock
// (all entries zero, ⊥ in the FastTrack lattice). VCs grow on demand; an
// out-of-range read is zero.
type VC []Time

// Get returns the entry for t.
func (v VC) Get(t TID) Time {
	if int(t) < len(v) {
		return v[t]
	}
	return 0
}

// Set updates the entry for t, growing the clock as needed, and returns the
// (possibly reallocated) clock.
func (v VC) Set(t TID, c Time) VC {
	v = v.grow(t)
	v[t] = c
	return v
}

// Tick increments t's own entry (the "increment after release" step) and
// returns the clock.
func (v VC) Tick(t TID) VC {
	v = v.grow(t)
	v[t]++
	return v
}

func (v VC) grow(t TID) VC {
	if int(t) < len(v) {
		return v
	}
	nv := make(VC, t+1)
	copy(nv, v)
	return nv
}

// Copy returns an independent copy of v.
func (v VC) Copy() VC {
	nv := make(VC, len(v))
	copy(nv, v)
	return nv
}

// Assign overwrites v with the contents of src, reusing v's storage when
// its capacity suffices, and returns the result (the same length as src).
// The result never aliases src: it is src's value, like Copy, without the
// allocation once v has grown to src's length.
func (v VC) Assign(src VC) VC {
	return append(v[:0], src...)
}

// Join merges other into v pointwise-max (⊔) and returns the clock.
func (v VC) Join(other VC) VC {
	if len(other) > len(v) {
		nv := make(VC, len(other))
		copy(nv, v)
		v = nv
	}
	for i, c := range other {
		if c > v[i] {
			v[i] = c
		}
	}
	return v
}

// Leq reports v ⊑ other (pointwise ≤): every event v knows about, other
// knows about too.
func (v VC) Leq(other VC) bool {
	for i, c := range v {
		if c > other.Get(TID(i)) {
			return false
		}
	}
	return true
}

// EpochOf returns t's current epoch C(t)[t]@t.
func (v VC) EpochOf(t TID) Epoch { return E(t, v.Get(t)) }

// HappensBefore reports e ≼ v: the access at epoch e is ordered before any
// event of a thread whose clock is v. This is FastTrack's O(1) epoch-VC
// comparison e.clock ≤ v[e.tid].
func HappensBefore(e Epoch, v VC) bool {
	return e.Clock() <= v.Get(e.TID())
}

// String renders the clock compactly, eliding zero entries.
func (v VC) String() string {
	var b strings.Builder
	b.WriteByte('[')
	first := true
	for i, c := range v {
		if c == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", i, c)
		first = false
	}
	b.WriteByte(']')
	return b.String()
}
