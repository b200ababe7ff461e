package vm

import (
	"fmt"
	"math/rand"
	"testing"
)

// refReadU and refWriteU are the original byte-at-a-time implementations,
// kept as the reference the word-granular ReadU/WriteU must match.
func refReadU(f *Frame, off uint64, n uint8) uint64 {
	var v uint64
	for i := uint8(0); i < n; i++ {
		v |= uint64(f[off+uint64(i)]) << (8 * i)
	}
	return v
}

func refWriteU(f *Frame, off uint64, n uint8, v uint64) {
	for i := uint8(0); i < n; i++ {
		f[off+uint64(i)] = byte(v >> (8 * i))
	}
}

// accessOffsets returns the offsets probed for an n-byte access: the
// frame start, aligned and unaligned interior offsets, and the last ones
// that still fit (PageSize-n and its neighbour).
func accessOffsets(n uint8) []uint64 {
	last := PageSize - uint64(n)
	return []uint64{0, 1, 3, 7, 8, 13, 64, 511, 2048 + 5, last - 1, last}
}

func TestReadWriteUMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMachine()
	id := m.AllocFrame()
	f := m.frame(id)
	var ref Frame
	for n := uint8(1); n <= 8; n++ {
		for _, off := range accessOffsets(n) {
			for trial := 0; trial < 16; trial++ {
				v := rng.Uint64()
				m.WriteU(id, off, n, v)
				refWriteU(&ref, off, n, v)
				if *f != ref {
					t.Fatalf("WriteU(off %d, n %d, %#x) diverges from the byte loop", off, n, v)
				}
				// Fill the neighbourhood with noise so a read that
				// strays outside [off, off+n) is caught.
				for i := range f {
					f[i] = byte(rng.Uint32())
				}
				ref = *f
				if got, want := m.ReadU(id, off, n), refReadU(&ref, off, n); got != want {
					t.Fatalf("ReadU(off %d, n %d) = %#x, byte loop gives %#x", off, n, got, want)
				}
			}
		}
	}
}

func TestOnPage(t *testing.T) {
	for _, c := range []struct {
		addr uint64
		size uint8
		want uint8
	}{
		{0, 8, 8},
		{PageSize - 8, 8, 8},
		{PageSize - 7, 8, 7},
		{PageSize - 1, 8, 1},
		{3*PageSize + PageSize - 4, 8, 4},
		{5*PageSize + PageSize - 2, 4, 2},
		{PageSize - 1, 1, 1},
		{PageSize + 3, 2, 2},
	} {
		if got := OnPage(c.addr, c.size); got != c.want {
			t.Errorf("OnPage(%#x, %d) = %d, want %d", c.addr, c.size, got, c.want)
		}
	}
}

// TestSplitRoundTrip writes and reads an 8-byte value at every split point
// and checks both halves landed where a byte loop over the two frames puts
// them, with the surrounding bytes untouched.
func TestSplitRoundTrip(t *testing.T) {
	const v uint64 = 0x8877665544332211
	for first := uint8(1); first < 8; first++ {
		m := NewMachine()
		a, b := m.AllocFrame(), m.AllocFrame()
		addr := PageSize - uint64(first)
		if got := OnPage(addr, 8); got != first {
			t.Fatalf("OnPage(%#x, 8) = %d, want %d", addr, got, first)
		}
		m.WriteSplit(a, PageOff(addr), b, first, 8, v)
		if got := m.ReadSplit(a, PageOff(addr), b, first, 8); got != v {
			t.Errorf("split %d: ReadSplit = %#x, want %#x", first, got, v)
		}
		fa, fb := m.frame(a), m.frame(b)
		for i := uint8(0); i < 8; i++ {
			var got byte
			if i < first {
				got = fa[addr+uint64(i)]
			} else {
				got = fb[i-first]
			}
			if want := byte(v >> (8 * i)); got != want {
				t.Errorf("split %d: byte %d = %#x, want %#x", first, i, got, want)
			}
		}
		if fa[addr-1] != 0 || fb[8-first] != 0 {
			t.Errorf("split %d: write spilled outside the access", first)
		}
	}
}

func TestInvalidFramePanics(t *testing.T) {
	m := NewMachine()
	freed := m.AllocFrame()
	m.FreeFrame(freed)
	for _, id := range []FrameID{NoFrame, freed, freed + 1} {
		func() {
			defer func() {
				want := fmt.Sprintf("vm: access to invalid frame %d", id)
				if r := recover(); r != want {
					t.Errorf("ReadU on frame %d: panic %v, want %q", id, r, want)
				}
			}()
			m.ReadU(id, 0, 8)
		}()
	}
}

// TestWarmAccessNoAllocs pins the benchmarked access paths at zero
// allocations.
func TestWarmAccessNoAllocs(t *testing.T) {
	m := NewMachine()
	a, b := m.AllocFrame(), m.AllocFrame()
	var sink uint64
	if n := testing.AllocsPerRun(200, func() {
		m.WriteU(a, 64, 8, sink+1)
		sink += m.ReadU(a, 64, 8)
		m.WriteU(a, 130, 4, sink)
		sink += m.ReadU(a, 130, 4)
		m.WriteSplit(a, PageSize-3, b, 3, 8, sink)
		sink += m.ReadSplit(a, PageSize-3, b, 3, 8)
	}); n != 0 {
		t.Errorf("warm accesses allocate %.1f objects per round, want 0", n)
	}
}

// machineSink keeps the benchmarked loads live.
var machineSink uint64

// BenchmarkMachineAccess measures one store plus one load per iteration
// for the three shapes the memory buses issue.
func BenchmarkMachineAccess(b *testing.B) {
	m := NewMachine()
	f1, f2 := m.AllocFrame(), m.AllocFrame()
	b.Run("aligned8", func(b *testing.B) {
		b.ReportAllocs()
		var v uint64
		for i := 0; i < b.N; i++ {
			off := uint64(i*8) & (PageSize - 8)
			m.WriteU(f1, off, 8, v+1)
			v = m.ReadU(f1, off, 8)
		}
		machineSink = v
	})
	b.Run("width4", func(b *testing.B) {
		b.ReportAllocs()
		var v uint64
		for i := 0; i < b.N; i++ {
			off := uint64(i*4) & (PageSize - 4)
			m.WriteU(f1, off, 4, v+1)
			v = m.ReadU(f1, off, 4)
		}
		machineSink = v
	})
	b.Run("split8", func(b *testing.B) {
		b.ReportAllocs()
		var v uint64
		for i := 0; i < b.N; i++ {
			first := uint8(i%7) + 1
			off := PageSize - uint64(first)
			m.WriteSplit(f1, off, f2, first, 8, v+1)
			v = m.ReadSplit(f1, off, f2, first, 8)
		}
		machineSink = v
	})
}
