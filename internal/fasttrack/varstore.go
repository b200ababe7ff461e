// Variable-metadata storage for the FastTrack detector.
//
// The hot path of OnAccess is one varState lookup per 8-byte block. The
// original implementation kept `map[uint64]*varState`, paying a map hash +
// probe plus a heap allocation per materialized block. The default store
// here is a two-level paged table in the style of Umbra's shadow
// translation: block addresses are grouped into aligned 4 KiB chunks of
// *inline* varState cells, a one-entry last-chunk cache serves runs of
// accesses to the same chunk with zero map operations, and materializing a
// block inside an existing chunk allocates nothing.
//
// The map-based store is retained as the reference implementation: the
// equivalence tests run whole PARSEC models against both stores and demand
// identical races, counters, and simulated cycles.
package fasttrack

import "repro/internal/vclock"

const (
	// chunkBits is log2 of the varState cells per chunk: 512 cells cover
	// one 4 KiB page of application memory at 8-byte block granularity.
	chunkBits   = 9
	chunkBlocks = 1 << chunkBits
)

// varChunk holds the inline metadata cells for one aligned 4 KiB span.
type varChunk [chunkBlocks]varState

// varStore is the storage seam for variable metadata. lookup returns the
// cell for an 8-byte-aligned block address, materializing storage as
// needed, and reports whether the block had never been accessed (so the
// caller can maintain the Variables counter).
type varStore interface {
	lookup(block uint64) (vs *varState, fresh bool)
}

// fresh reports whether a cell has never been written by the detector. The
// update rules guarantee every access leaves w≠⊥ₑ, r≠⊥ₑ, or a read VC in
// place (an epoch always carries a clock ≥ 1), so the zero value uniquely
// identifies an untouched block.
func (vs *varState) fresh() bool {
	return vs.w == vclock.None && vs.r == vclock.None && vs.rvcIdx == 0
}

// chunkCacheSlots sizes the direct-mapped chunk cache: threads alternating
// between regions (stack vs globals vs heap) keep several chunks live at
// once, which a single-entry memoization would thrash on.
const chunkCacheSlots = 64

// chunkCacheEntry is one direct-mapped cache slot.
type chunkCacheEntry struct {
	key uint64
	c   *varChunk
}

// pagedVarStore is the default, allocation-free-on-the-fast-path store.
type pagedVarStore struct {
	chunks map[uint64]*varChunk
	// cache is the direct-mapped chunk memoization: accesses to recently
	// used 4 KiB spans (the overwhelmingly common case) skip the map.
	cache [chunkCacheSlots]chunkCacheEntry
}

func newPagedVarStore() *pagedVarStore {
	return &pagedVarStore{chunks: make(map[uint64]*varChunk)}
}

func (s *pagedVarStore) lookup(block uint64) (*varState, bool) {
	vs := &s.chunk(block)[(block>>BlockShift)&(chunkBlocks-1)]
	return vs, vs.fresh()
}

// chunk returns the chunk covering block, materializing it and refreshing
// the direct-mapped cache slot.
func (s *pagedVarStore) chunk(block uint64) *varChunk {
	key := block >> (BlockShift + chunkBits)
	slot := &s.cache[key&(chunkCacheSlots-1)]
	c := slot.c
	if c == nil || slot.key != key {
		var ok bool
		c, ok = s.chunks[key]
		if !ok {
			c = new(varChunk)
			s.chunks[key] = c
		}
		slot.key, slot.c = key, c
	}
	return c
}

// mapVarStore is the original map-of-pointers store, kept as the reference
// implementation for the equivalence tests.
type mapVarStore struct {
	vars map[uint64]*varState
}

func newMapVarStore() *mapVarStore {
	return &mapVarStore{vars: make(map[uint64]*varState)}
}

func (s *mapVarStore) lookup(block uint64) (*varState, bool) {
	vs, ok := s.vars[block]
	if !ok {
		vs = &varState{}
		s.vars[block] = vs
	}
	return vs, !ok
}
