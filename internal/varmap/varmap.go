// Package varmap is the per-variable metadata store of the lockset,
// atomicity, commgraph and spbags detectors.
//
// Aikido keeps analysis metadata in Umbra-style shadow memory (paper §2.2,
// §3.3.1): finding a variable's state is a region offset, not a hash
// probe. Map does the same for 8-byte blocks. Blocks are grouped into
// aligned chunks of 64 inline cells (512 bytes of guest memory),
// a 64-slot direct-mapped cache serves the recently used chunks without a
// map operation, and only a chunk's first touch allocates.
//
// The store charges no simulated cycles; it changes host time only. Cells
// start as T's zero value, so each detector lays its cell out so that the
// zero value means "never accessed" and decides freshness per cell.
package varmap

import "slices"

const (
	// blockShift is log2 of the variable granularity: one cell per
	// 8-byte block, as in every detector that uses the store.
	blockShift = 3
	// chunkBits is log2 of the cells per chunk. The detectors on this
	// store touch a few to a few hundred blocks per run, spread over
	// many pages, so chunks are much smaller than a page: page-sized
	// chunks were no faster and cost resident memory.
	chunkBits   = 6
	chunkBlocks = 1 << chunkBits
)

// cacheSlots sizes the direct-mapped chunk cache: threads alternating
// between regions (stack vs globals vs heap) keep several chunks live at
// once, which a single-entry memoization would thrash on.
const cacheSlots = 64

type chunk[T any] [chunkBlocks]T

// noChunk marks an empty cache slot. No address maps to it: chunk keys
// are addresses shifted right by blockShift+chunkBits.
const noChunk = ^uint64(0)

type cacheEntry[T any] struct {
	key uint64
	c   *chunk[T]
}

// Map is a paged table of T cells, one per 8-byte block.
type Map[T any] struct {
	chunks map[uint64]*chunk[T]
	cache  [cacheSlots]cacheEntry[T]
}

// New returns an empty store.
func New[T any]() *Map[T] {
	m := &Map[T]{chunks: make(map[uint64]*chunk[T])}
	for i := range m.cache {
		m.cache[i].key = noChunk
	}
	return m
}

// Cell returns the cell for the block containing addr, materializing its
// chunk if needed. The pointer stays valid for the store's lifetime.
// Cell (with fill) stays within the compiler's inlining budget, so a
// cache hit costs the caller no call.
func (m *Map[T]) Cell(addr uint64) *T {
	key := addr >> (blockShift + chunkBits)
	slot := &m.cache[key&(cacheSlots-1)]
	if slot.key != key {
		m.fill(slot, key)
	}
	return &slot.c[(addr>>blockShift)&(chunkBlocks-1)]
}

// fill points slot at chunk key, allocating the chunk on first touch.
func (m *Map[T]) fill(slot *cacheEntry[T], key uint64) {
	c := m.chunks[key]
	if c == nil {
		c = new(chunk[T])
		m.chunks[key] = c
	}
	slot.key, slot.c = key, c
}

// Range calls yield for every cell of every materialized chunk, in
// ascending block order, until yield returns false. Fresh cells are
// visited too; callers skip them by their own freshness test.
func (m *Map[T]) Range(yield func(block uint64, cell *T) bool) {
	keys := make([]uint64, 0, len(m.chunks))
	for k := range m.chunks {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		c := m.chunks[k]
		base := k << (blockShift + chunkBits)
		for i := range c {
			if !yield(base+uint64(i)<<blockShift, &c[i]) {
				return
			}
		}
	}
}
