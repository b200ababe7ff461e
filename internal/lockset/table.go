// Hash-consed lockset table.
//
// Eraser keeps locksets as small integer indices into a table of distinct
// sets and caches the results of set operations on those indices, so the
// per-event work is a table probe rather than set arithmetic (Savage et
// al., TOCS'97). The table here does the same: every lockset a
// detector ever names is interned once, so equal sets are the same
// pointer and the same dense index — meet's `a == b` shortcut relies on
// that — and the three operations the detector performs on sets
// are memoized per set:
//
//   - acquire: (set, lock) → set ∪ {lock}, cached on the source set;
//   - release: (set, lock) → set \ {lock}, cached on the source set;
//   - refinement: (set, set) → set ∩ set, cached in a table-wide meet map
//     keyed by the two sets' dense indices.
//
// A steady-state synchronization event is therefore one small-map probe
// and no allocation. Only a cache miss computes ids, and only a set never
// seen before allocates; the interning probe itself reuses one key buffer,
// so even a miss on a known set allocates only the cache entry.
package lockset

import (
	"encoding/binary"
	"slices"
)

// lockSet is an immutable sorted set of lock ids. Sets are created only
// by setTable.intern, so two sets with equal ids are the same pointer.
type lockSet struct {
	ids []int64
	// idx is the set's dense index in its table (the meet-cache key).
	idx uint32
	// acq[l] caches ids ∪ {l}; rel[l] caches ids \ {l}. Each is
	// allocated on the set's first transition of that kind.
	acq, rel map[int64]*lockSet
}

// setTable interns locksets and memoizes the operations on them. It
// belongs to one detector.
type setTable struct {
	sets  map[string]*lockSet // canonical encoding of ids → set
	byIdx []*lockSet          // dense index → set; byIdx[0] is empty
	meets map[uint64]*lockSet // lo.idx<<32 | hi.idx → lo ∩ hi
	empty *lockSet

	key []byte  // reused interning probe key
	buf []int64 // reused scratch for a set being computed
}

func newSetTable() setTable {
	t := setTable{
		sets:  make(map[string]*lockSet),
		meets: make(map[uint64]*lockSet),
	}
	t.empty = t.intern(nil)
	return t
}

// intern returns the canonical set with the given sorted ids. ids may be
// scratch storage: a new set copies it.
func (t *setTable) intern(ids []int64) *lockSet {
	t.key = t.key[:0]
	for _, id := range ids {
		t.key = binary.LittleEndian.AppendUint64(t.key, uint64(id))
	}
	if ls, ok := t.sets[string(t.key)]; ok {
		return ls
	}
	ls := &lockSet{ids: slices.Clone(ids), idx: uint32(len(t.byIdx))}
	t.sets[string(t.key)] = ls
	t.byIdx = append(t.byIdx, ls)
	return ls
}

// withLock returns s ∪ {lock}.
func (t *setTable) withLock(s *lockSet, lock int64) *lockSet {
	if next, ok := s.acq[lock]; ok {
		return next
	}
	next := s
	if i, held := slices.BinarySearch(s.ids, lock); !held {
		t.buf = slices.Insert(append(t.buf[:0], s.ids...), i, lock)
		next = t.intern(t.buf)
	}
	if s.acq == nil {
		s.acq = make(map[int64]*lockSet)
	}
	s.acq[lock] = next
	return next
}

// withoutLock returns s \ {lock}.
func (t *setTable) withoutLock(s *lockSet, lock int64) *lockSet {
	if next, ok := s.rel[lock]; ok {
		return next
	}
	next := s
	if i, held := slices.BinarySearch(s.ids, lock); held {
		t.buf = slices.Delete(append(t.buf[:0], s.ids...), i, i+1)
		next = t.intern(t.buf)
	}
	if s.rel == nil {
		s.rel = make(map[int64]*lockSet)
	}
	s.rel[lock] = next
	return next
}

// meet returns a ∩ b.
func (t *setTable) meet(a, b *lockSet) *lockSet {
	if a == b {
		return a
	}
	if len(a.ids) == 0 || len(b.ids) == 0 {
		return t.empty
	}
	if a.idx > b.idx {
		a, b = b, a
	}
	key := uint64(a.idx)<<32 | uint64(b.idx)
	if m, ok := t.meets[key]; ok {
		return m
	}
	t.buf = t.buf[:0]
	i, j := 0, 0
	for i < len(a.ids) && j < len(b.ids) {
		switch {
		case a.ids[i] == b.ids[j]:
			t.buf = append(t.buf, a.ids[i])
			i++
			j++
		case a.ids[i] < b.ids[j]:
			i++
		default:
			j++
		}
	}
	m := t.intern(t.buf)
	t.meets[key] = m
	return m
}
