package vclock

import (
	"testing"
	"testing/quick"
)

func TestEpochPackUnpack(t *testing.T) {
	e := E(7, 12345)
	if e.TID() != 7 || e.Clock() != 12345 {
		t.Errorf("E(7,12345) round trip: tid=%d clock=%d", e.TID(), e.Clock())
	}
	if None.TID() != 0 || None.Clock() != 0 {
		t.Error("None is not 0@0")
	}
	if e.String() != "12345@7" {
		t.Errorf("String = %q", e.String())
	}
}

func TestEpochRoundTripProperty(t *testing.T) {
	prop := func(tid int32, c uint32) bool {
		if tid < 0 {
			tid = -tid
		}
		e := E(TID(tid), Time(c))
		return e.TID() == TID(tid) && e.Clock() == Time(c)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestGetSetTick(t *testing.T) {
	var v VC
	if v.Get(5) != 0 {
		t.Error("empty clock nonzero")
	}
	v = v.Set(3, 9)
	if v.Get(3) != 9 || v.Get(2) != 0 {
		t.Errorf("Set: %v", v)
	}
	v = v.Tick(3)
	if v.Get(3) != 10 {
		t.Errorf("Tick: %v", v)
	}
	v = v.Tick(8) // grows
	if v.Get(8) != 1 {
		t.Errorf("Tick growth: %v", v)
	}
}

func TestJoinIsPointwiseMax(t *testing.T) {
	a := VC{1, 5, 0, 2}
	b := VC{3, 2, 7}
	j := a.Copy().Join(b)
	want := VC{3, 5, 7, 2}
	for i := range want {
		if j.Get(TID(i)) != want[i] {
			t.Fatalf("Join = %v, want %v", j, want)
		}
	}
}

func TestJoinProperties(t *testing.T) {
	// Join is commutative, idempotent, and an upper bound.
	norm := func(xs []uint8) VC {
		v := make(VC, len(xs))
		for i, x := range xs {
			v[i] = Time(x)
		}
		return v
	}
	comm := func(xs, ys []uint8) bool {
		a, b := norm(xs), norm(ys)
		ab := a.Copy().Join(b)
		ba := b.Copy().Join(a)
		for i := 0; i < len(ab) || i < len(ba); i++ {
			if ab.Get(TID(i)) != ba.Get(TID(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error("join not commutative:", err)
	}
	idem := func(xs []uint8) bool {
		a := norm(xs)
		j := a.Copy().Join(a)
		return j.Leq(a) && a.Leq(j)
	}
	if err := quick.Check(idem, nil); err != nil {
		t.Error("join not idempotent:", err)
	}
	upper := func(xs, ys []uint8) bool {
		a, b := norm(xs), norm(ys)
		j := a.Copy().Join(b)
		return a.Leq(j) && b.Leq(j)
	}
	if err := quick.Check(upper, nil); err != nil {
		t.Error("join not an upper bound:", err)
	}
}

func TestLeqPartialOrder(t *testing.T) {
	a := VC{1, 2}
	b := VC{2, 2}
	if !a.Leq(b) || b.Leq(a) {
		t.Error("Leq ordering wrong")
	}
	// Incomparable pair.
	c := VC{3, 0}
	if a.Leq(c) || c.Leq(a) {
		t.Error("incomparable clocks ordered")
	}
	// Reflexive.
	if !a.Leq(a) {
		t.Error("Leq not reflexive")
	}
	// Longer-vs-shorter comparisons treat missing entries as zero.
	d := VC{1, 2, 0, 0}
	if !a.Leq(d) || !d.Leq(a) {
		t.Error("trailing zeros change ordering")
	}
}

func TestHappensBefore(t *testing.T) {
	v := VC{0, 4, 2}
	cases := []struct {
		e    Epoch
		want bool
	}{
		{E(1, 4), true},  // equal: ordered
		{E(1, 5), false}, // ahead of v
		{E(2, 1), true},
		{E(9, 1), false}, // unknown thread, clock 1 > 0
		{None, true},     // ⊥ before everything
	}
	for _, c := range cases {
		if got := HappensBefore(c.e, v); got != c.want {
			t.Errorf("HappensBefore(%v, %v) = %v, want %v", c.e, v, got, c.want)
		}
	}
}

func TestHappensBeforeMatchesLeqProperty(t *testing.T) {
	// For single-entry clocks, epoch-HB must agree with full VC Leq —
	// FastTrack's core compression claim.
	prop := func(tid uint8, c uint8, xs []uint8) bool {
		v := make(VC, len(xs))
		for i, x := range xs {
			v[i] = Time(x)
		}
		e := E(TID(tid), Time(c))
		var single VC
		single = single.Set(TID(tid), Time(c))
		return HappensBefore(e, v) == single.Leq(v)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestEpochOf(t *testing.T) {
	v := VC{}.Set(2, 7)
	e := v.EpochOf(2)
	if e.TID() != 2 || e.Clock() != 7 {
		t.Errorf("EpochOf = %v", e)
	}
	if v.EpochOf(5) != E(5, 0) {
		t.Error("EpochOf unknown thread != 0@t")
	}
}

func TestCopyIsIndependent(t *testing.T) {
	a := VC{1, 2, 3}
	b := a.Copy()
	b = b.Tick(0)
	if a.Get(0) != 1 {
		t.Error("Copy aliases original")
	}
}

func TestAssignReusesStorage(t *testing.T) {
	for _, tc := range []struct {
		name     string
		dst, src VC
	}{
		{"nil destination", nil, VC{4, 5, 6}},
		{"shorter destination", VC{9}, VC{4, 5, 6}},
		{"equal length", VC{9, 9, 9}, VC{4, 5, 6}},
		{"longer destination", VC{9, 9, 9, 9, 9}, VC{4, 5, 6}},
		{"empty source", VC{9, 9}, VC{}},
	} {
		dst := tc.dst
		backing := dst[:cap(dst)]
		got := dst.Assign(tc.src)
		if len(got) != len(tc.src) {
			t.Errorf("%s: len = %d, want %d", tc.name, len(got), len(tc.src))
		}
		for i, c := range tc.src {
			if got[i] != c {
				t.Errorf("%s: Assign = %v, want %v", tc.name, got, tc.src)
				break
			}
		}
		// Beyond the result's length every entry reads as zero.
		if got.Get(TID(len(tc.src)+1)) != 0 {
			t.Errorf("%s: stale entry past the source's length", tc.name)
		}
		if cap(tc.dst) >= len(tc.src) && len(tc.src) > 0 && &got[0] != &backing[0] {
			t.Errorf("%s: Assign reallocated a destination with room", tc.name)
		}
		// The result must not alias the source: writes to either side
		// stay on that side.
		if len(got) > 0 {
			before := tc.src.Copy()
			got = got.Tick(0)
			if tc.src.Get(0) != before.Get(0) {
				t.Errorf("%s: writing the destination changed the source", tc.name)
			}
			tc.src[0] = 77
			if got.Get(0) == 77 {
				t.Errorf("%s: writing the source changed the destination", tc.name)
			}
		}
	}
}

func TestTickMonotoneProperty(t *testing.T) {
	prop := func(xs []uint8, tid uint8) bool {
		v := make(VC, len(xs))
		for i, x := range xs {
			v[i] = Time(x)
		}
		before := v.Copy()
		after := v.Copy().Tick(TID(tid))
		return before.Leq(after) && !after.Leq(before)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStringElidesZeros(t *testing.T) {
	v := VC{0, 3, 0, 1}
	if got := v.String(); got != "[1:3 3:1]" {
		t.Errorf("String = %q", got)
	}
}
