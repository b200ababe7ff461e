package varmap

import (
	"math/rand"
	"slices"
	"testing"
)

// cell is a test payload wider than one word, so a cell mix-up between
// neighbours would show in either field.
type cell struct {
	a uint64
	b uint32
}

// TestMatchesMapReference drives the store and a plain map with the same
// seeded updates and demands they agree cell for cell. Addresses cluster
// around chunk boundaries, and chunk keys 64 apart share one cache slot,
// so every seed exercises boundary blocks and slot eviction.
func TestMatchesMapReference(t *testing.T) {
	chunkBytes := uint64(chunkBlocks) << blockShift
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New[cell]()
		ref := map[uint64]cell{}
		for i := 0; i < 2000; i++ {
			// Chunk keys k, k+64, k+128 collide in cache slot k%64.
			key := uint64(rng.Intn(4)) + uint64(rng.Intn(3))*cacheSlots
			var off uint64
			switch rng.Intn(3) {
			case 0: // first block of the chunk
				off = uint64(rng.Intn(8))
			case 1: // last block of the chunk
				off = chunkBytes - 1 - uint64(rng.Intn(8))
			default:
				off = uint64(rng.Intn(int(chunkBytes)))
			}
			addr := key*chunkBytes + off
			block := addr &^ (1<<blockShift - 1)
			c := m.Cell(addr)
			if got, want := *c, ref[block]; got != want {
				t.Fatalf("seed %d: cell %#x = %+v, want %+v", seed, block, got, want)
			}
			if rng.Intn(2) == 0 {
				v := cell{a: rng.Uint64(), b: rng.Uint32()}
				*c = v
				ref[block] = v
			}
		}

		// Range: every materialized cell once, ascending, and each
		// non-zero reference cell among them.
		var blocks []uint64
		seen := map[uint64]cell{}
		for b, c := range m.Range {
			blocks = append(blocks, b)
			seen[b] = *c
		}
		if !slices.IsSorted(blocks) || len(seen) != len(blocks) {
			t.Fatalf("seed %d: Range not strictly ascending", seed)
		}
		if len(blocks)%chunkBlocks != 0 || len(blocks)/chunkBlocks != len(m.chunks) {
			t.Fatalf("seed %d: Range visited %d cells over %d chunks", seed, len(blocks), len(m.chunks))
		}
		for b, want := range ref {
			if got, ok := seen[b]; !ok || got != want {
				t.Fatalf("seed %d: Range cell %#x = %+v (visited %v), want %+v", seed, b, got, ok, want)
			}
		}
		for b, c := range seen {
			if c != ref[b] {
				t.Fatalf("seed %d: Range cell %#x = %+v, want %+v", seed, b, c, ref[b])
			}
			if _, ok := m.chunks[b>>(blockShift+chunkBits)]; !ok {
				t.Fatalf("seed %d: Range visited %#x in an unmaterialized chunk", seed, b)
			}
		}
	}
}

// TestRangeStopsEarly checks that Range honours a false return.
func TestRangeStopsEarly(t *testing.T) {
	m := New[uint32]()
	m.Cell(0)
	m.Cell(1 << 20)
	n := 0
	for range m.Range {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("Range yielded %d cells after break, want 1", n)
	}
}

// TestCellStable checks that a cell pointer survives eviction of its
// chunk from the cache.
func TestCellStable(t *testing.T) {
	m := New[uint64]()
	p := m.Cell(8)
	*p = 42
	m.Cell(cacheSlots * chunkBlocks << blockShift) // same cache slot
	if q := m.Cell(8); q != p || *q != 42 {
		t.Fatalf("cell moved or lost its value after eviction")
	}
}

// TestCellWarmNoAllocs pins the hot path: looking up any block of an
// already materialized chunk allocates nothing, cached or not.
func TestCellWarmNoAllocs(t *testing.T) {
	m := New[cell]()
	evict := uint64(cacheSlots*chunkBlocks) << blockShift
	m.Cell(0x1000)
	m.Cell(0x1000 + evict)
	if n := testing.AllocsPerRun(200, func() {
		m.Cell(0x1000).a++
		m.Cell(0x1008).b++
		m.Cell(0x1000+evict).a++ // cache miss on a known chunk
	}); n != 0 {
		t.Fatalf("warm Cell allocates %.1f objects per run, want 0", n)
	}
}
