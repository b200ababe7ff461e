// Package pagetable implements the guest operating system's page tables:
// virtual page number → physical frame mappings with x86-style protection
// bits (present/readable, writable, user-accessible).
//
// A real hypervisor learns about guest page-table updates by write-protecting
// the pages that hold them and trapping the writes (paper §3.2.2). The
// simulation expresses the same interposition point directly: a Table
// accepts a Listener, and every mutation is reported to it. AikidoVM
// registers itself as the listener and updates its per-thread shadow page
// tables in response, exactly as the paper's hypervisor does on a trapped
// page-table write.
package pagetable

import (
	"fmt"
	"sort"

	"repro/internal/vm"
)

// Prot is a page protection bit set.
type Prot uint8

// Protection bits, mirroring the x86 PTE bits the paper manipulates
// (present ⇒ readable, writable, user-accessible; §3.2.2 and §3.2.6).
const (
	// ProtRead marks the page present and readable.
	ProtRead Prot = 1 << iota
	// ProtWrite marks the page writable.
	ProtWrite
	// ProtUser marks the page accessible from guest userspace. AikidoVM
	// clears this bit when it temporarily unprotects a page for the guest
	// kernel, so the next userspace access still faults (§3.2.6).
	ProtUser

	// ProtNone denies all access.
	ProtNone Prot = 0
	// ProtRW is the common userspace data protection.
	ProtRW = ProtRead | ProtWrite | ProtUser
	// ProtRO is read-only userspace protection.
	ProtRO = ProtRead | ProtUser
)

// Allows reports whether the protection permits the access from userspace
// (user=true) or kernel mode.
func (p Prot) Allows(a Access, user bool) bool {
	if p&ProtRead == 0 {
		return false
	}
	if a == AccessWrite && p&ProtWrite == 0 {
		return false
	}
	if user && p&ProtUser == 0 {
		return false
	}
	return true
}

// String renders the protection like "rwu" / "r--".
func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtUser != 0 {
		b[2] = 'u'
	}
	return string(b)
}

// Access is a memory access kind.
type Access uint8

// Access kinds.
const (
	// AccessRead is a data load.
	AccessRead Access = iota
	// AccessWrite is a data store.
	AccessWrite
)

// String returns "read" or "write".
func (a Access) String() string {
	if a == AccessWrite {
		return "write"
	}
	return "read"
}

// PTE is one page-table entry.
type PTE struct {
	Frame vm.FrameID
	Prot  Prot
}

// Listener observes page-table mutations. In the real system this is the
// hypervisor's write-protection trap on guest page-table pages.
type Listener interface {
	// PTEUpdated is called after the entry for vpn changes. old is the
	// previous entry (zero PTE if the page was unmapped) and new the
	// current one (zero PTE if the page is being unmapped).
	PTEUpdated(vpn uint64, old, new PTE)
}

// Chunking of the VPN space: the guest address space is sparse (code,
// data, heap, mmap, and stacks sit at widely separated bases), but each
// populated area is dense, so the table stores aligned chunks of inline
// PTEs keyed by the high VPN bits — a walk is a chunk fetch (usually served
// by the one-entry last-chunk cache) plus an index, not a map probe per
// page. A PTE with Frame == vm.NoFrame marks an unmapped slot: Map rejects
// NoFrame, so the zero value can never alias a real mapping.
const (
	chunkBits = 9 // 512 pages = 2 MiB of guest address space per chunk
	chunkLen  = 1 << chunkBits
)

// ptChunk holds the entries for one aligned 2 MiB span of page numbers.
type ptChunk [chunkLen]PTE

// Table is one guest page table (one per guest process).
type Table struct {
	chunks   map[uint64]*ptChunk
	lastKey  uint64
	last     *ptChunk
	mapped   int
	listener Listener

	// Updates counts mutations; each one would cost a hypervisor trap in
	// the real system.
	Updates uint64
}

// New returns an empty page table.
func New() *Table {
	return &Table{chunks: make(map[uint64]*ptChunk)}
}

// SetListener installs the mutation observer (at most one; the hypervisor).
func (t *Table) SetListener(l Listener) { t.listener = l }

// chunk returns the chunk covering vpn through the last-chunk cache,
// allocating it when alloc is set; nil when absent and alloc is false.
func (t *Table) chunk(vpn uint64, alloc bool) *ptChunk {
	key := vpn >> chunkBits
	if c := t.last; c != nil && key == t.lastKey {
		return c
	}
	c := t.chunks[key]
	if c == nil {
		if !alloc {
			return nil
		}
		c = new(ptChunk)
		t.chunks[key] = c
	}
	t.lastKey, t.last = key, c
	return c
}

// Lookup returns the entry for vpn.
func (t *Table) Lookup(vpn uint64) (PTE, bool) {
	c := t.chunk(vpn, false)
	if c == nil {
		return PTE{}, false
	}
	pte := c[vpn&(chunkLen-1)]
	return pte, pte.Frame != vm.NoFrame
}

// Map installs a mapping for vpn. Remapping an existing vpn is allowed (it
// models mmap(MAP_FIXED) over an existing region).
func (t *Table) Map(vpn uint64, frame vm.FrameID, prot Prot) {
	if frame == vm.NoFrame {
		panic(fmt.Sprintf("pagetable: mapping vpn %#x to the invalid frame", vpn))
	}
	c := t.chunk(vpn, true)
	old := c[vpn&(chunkLen-1)]
	if old.Frame == vm.NoFrame {
		t.mapped++
	}
	pte := PTE{Frame: frame, Prot: prot}
	c[vpn&(chunkLen-1)] = pte
	t.Updates++
	if t.listener != nil {
		t.listener.PTEUpdated(vpn, old, pte)
	}
}

// Unmap removes the mapping for vpn, returning the old entry.
func (t *Table) Unmap(vpn uint64) (PTE, bool) {
	c := t.chunk(vpn, false)
	if c == nil {
		return PTE{}, false
	}
	old := c[vpn&(chunkLen-1)]
	if old.Frame == vm.NoFrame {
		return PTE{}, false
	}
	c[vpn&(chunkLen-1)] = PTE{}
	t.mapped--
	t.Updates++
	if t.listener != nil {
		t.listener.PTEUpdated(vpn, old, PTE{})
	}
	return old, true
}

// SetProt changes the protection of an existing mapping. It reports whether
// the vpn was mapped.
func (t *Table) SetProt(vpn uint64, prot Prot) bool {
	c := t.chunk(vpn, false)
	if c == nil {
		return false
	}
	old := c[vpn&(chunkLen-1)]
	if old.Frame == vm.NoFrame {
		return false
	}
	pte := PTE{Frame: old.Frame, Prot: prot}
	c[vpn&(chunkLen-1)] = pte
	t.Updates++
	if t.listener != nil {
		t.listener.PTEUpdated(vpn, old, pte)
	}
	return true
}

// Len returns the number of mapped pages.
func (t *Table) Len() int { return t.mapped }

// VPNs returns all mapped virtual page numbers in ascending order. Used by
// the hypervisor to build a fresh shadow table for a new thread and by the
// sharing detector to protect "all mapped pages" at startup (§3.3.2).
func (t *Table) VPNs() []uint64 {
	out := make([]uint64, 0, t.mapped)
	for key, c := range t.chunks {
		for i, pte := range c {
			if pte.Frame != vm.NoFrame {
				out = append(out, key<<chunkBits|uint64(i))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Walk translates a guest virtual address for the given access, returning
// the PTE. A nil *Fault means the access is permitted.
func (t *Table) Walk(addr uint64, a Access, user bool) (PTE, *Fault) {
	vpn := vm.PageNum(addr)
	c := t.chunk(vpn, false)
	if c == nil {
		return PTE{}, &Fault{Addr: addr, Access: a, Unmapped: true}
	}
	pte := c[vpn&(chunkLen-1)]
	if pte.Frame == vm.NoFrame {
		return PTE{}, &Fault{Addr: addr, Access: a, Unmapped: true}
	}
	if !pte.Prot.Allows(a, user) {
		return PTE{}, &Fault{Addr: addr, Access: a, Prot: pte.Prot}
	}
	return pte, nil
}

// WalkSpan walks every page the size-byte access at addr touches, for the
// buses that reach machine memory without a hypervisor. first is
// vm.OnPage(addr, size); when it is below size the access straddles a page
// boundary and f2 is the next page's frame, ready for vm.Machine's
// ReadSplit/WriteSplit. Both pages are walked before the caller touches
// memory, and a fault names the page that failed.
func (t *Table) WalkSpan(addr uint64, size uint8, a Access, user bool) (f1, f2 vm.FrameID, first uint8, fault *Fault) {
	pte, fault := t.Walk(addr, a, user)
	if fault != nil {
		return vm.NoFrame, vm.NoFrame, 0, fault
	}
	if first = vm.OnPage(addr, size); first < size {
		next, fault := t.Walk(addr+uint64(first), a, user)
		if fault != nil {
			return vm.NoFrame, vm.NoFrame, 0, fault
		}
		f2 = next.Frame
	}
	return pte.Frame, f2, first, nil
}

// Fault describes a page fault raised during translation.
type Fault struct {
	// Addr is the faulting guest virtual address.
	Addr uint64
	// Access is the attempted access kind.
	Access Access
	// Unmapped is true when no mapping exists at all.
	Unmapped bool
	// Prot is the protection that denied the access (when mapped).
	Prot Prot
}

// Error implements error.
func (f *Fault) Error() string {
	if f.Unmapped {
		return fmt.Sprintf("page fault: %s of unmapped address %#x", f.Access, f.Addr)
	}
	return fmt.Sprintf("page fault: %s of %#x denied by prot %s", f.Access, f.Addr, f.Prot)
}
