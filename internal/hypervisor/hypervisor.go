// Package hypervisor implements AikidoVM (paper §3.2): a hypervisor that
// grants guest userspace per-thread page protection by maintaining one
// shadow page table per guest thread instead of one per guest page table.
//
// Model correspondence:
//
//   - Shadow page tables are populated lazily on first access ("hidden
//     faults" in shadow-paging terminology) and invalidated when either the
//     guest page table or an Aikido protection entry changes. Reverse maps
//     from virtual page number to the threads caching it implement the
//     paper's "two reverse mapping tables" (§3.2.4).
//   - Guest page-table updates arrive through the pagetable.Listener
//     interface, standing in for the write-protection traps a real
//     hypervisor places on guest page-table pages (§3.2.2).
//   - Context switches between threads of one guest process arrive through
//     ContextSwitch, standing in for the FS/GS-write VM exit (§3.2.3).
//   - Aikido-induced faults are delivered to the guest as a *fake* fault at
//     an address pre-registered by AikidoLib, with the true faulting
//     address written to a registered guest memory slot (§3.2.5).
//   - Guest kernel accesses to Aikido-protected pages are emulated and the
//     page temporarily unprotected with the USER bit cleared, restored on
//     the next userspace fault (§3.2.6).
package hypervisor

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/vm"
)

// protAll is the identity element for protection intersection: an absent
// per-thread protection entry imposes no additional restriction.
const protAll = pagetable.ProtRead | pagetable.ProtWrite | pagetable.ProtUser

// pageProt is the per-page row of the per-thread protection table.
type pageProt struct {
	// def is the protection applied to threads with no override — and,
	// crucially, to threads created after the entry was installed.
	def pagetable.Prot
	// override holds per-thread exceptions to def.
	override map[guest.TID]pagetable.Prot
}

// shadowPTE is one cached translation in a thread's shadow page table. A
// zero frame (vm.NoFrame) marks an empty slot: fills always carry a real
// guest frame.
type shadowPTE struct {
	frame vm.FrameID
	prot  pagetable.Prot // effective = guest prot ∩ Aikido prot
}

// Shadow tables chunk the sparse VPN space exactly like pagetable.Table:
// aligned spans of inline entries behind a one-entry last-chunk cache, so
// the TLB-hit path of Translate is two bounds-checked loads and an index —
// no map probes.
const (
	shadowChunkBits = 9
	shadowChunkLen  = 1 << shadowChunkBits
)

// shadowChunk holds one aligned 2 MiB span of a thread's shadow table.
type shadowChunk [shadowChunkLen]shadowPTE

// shadowTable is one thread's shadow page table (ShadowPaging) or TLB +
// cached EPT view (NestedPaging).
type shadowTable struct {
	chunks  map[uint64]*shadowChunk
	lastKey uint64
	last    *shadowChunk
}

// lookup returns the cached entry for vpn, if any.
func (s *shadowTable) lookup(vpn uint64) (shadowPTE, bool) {
	key := vpn >> shadowChunkBits
	c := s.last
	if c == nil || key != s.lastKey {
		c = s.chunks[key]
		if c == nil {
			return shadowPTE{}, false
		}
		s.lastKey, s.last = key, c
	}
	e := c[vpn&(shadowChunkLen-1)]
	return e, e.frame != vm.NoFrame
}

// set installs the entry for vpn.
func (s *shadowTable) set(vpn uint64, e shadowPTE) {
	key := vpn >> shadowChunkBits
	c := s.last
	if c == nil || key != s.lastKey {
		c = s.chunks[key]
		if c == nil {
			c = new(shadowChunk)
			s.chunks[key] = c
		}
		s.lastKey, s.last = key, c
	}
	c[vpn&(shadowChunkLen-1)] = e
}

// drop clears the entry for vpn.
func (s *shadowTable) drop(vpn uint64) {
	if c := s.chunks[vpn>>shadowChunkBits]; c != nil {
		c[vpn&(shadowChunkLen-1)] = shadowPTE{}
	}
}

// Stats are AikidoVM's event counters.
type Stats struct {
	// ShadowFills counts lazy shadow-page-table population events
	// (hidden faults in real shadow paging).
	ShadowFills uint64
	// ShadowInvalidations counts shadow PTEs dropped due to guest
	// page-table updates or protection changes.
	ShadowInvalidations uint64
	// TLBHits counts translations served from a thread's shadow table.
	TLBHits uint64
	// AikidoFaults counts faults caused by Aikido protections and
	// delivered to guest userspace (the "Segmentation Faults" column of
	// Table 2).
	AikidoFaults uint64
	// GuestFaults counts ordinary faults delivered to the guest OS.
	GuestFaults uint64
	// KernelEmulations counts guest-kernel instructions emulated because
	// they touched an Aikido-protected page (§3.2.6).
	KernelEmulations uint64
	// TempUnprotects counts pages temporarily unprotected for the guest
	// kernel; Reprotects counts the restoration events.
	TempUnprotects uint64
	Reprotects     uint64
	// Hypercalls counts AikidoLib hypercalls.
	Hypercalls uint64
	// ContextSwitches counts shadow-table switches.
	ContextSwitches uint64
	// GuestPTUpdates counts trapped guest page-table writes.
	GuestPTUpdates uint64
}

// Hypervisor is the AikidoVM instance for one guest process.
type Hypervisor struct {
	m  *vm.Machine
	pt *pagetable.Table

	// mode selects shadow vs nested paging (§3.2.2); switchMode selects
	// the context-switch interception mechanism (§3.2.3).
	mode       PagingMode
	switchMode SwitchInterception

	// shadow is the per-thread translation cache, indexed by the (small)
	// TID: the shadow page table under ShadowPaging, the TLB + cached
	// EPT-view entries under NestedPaging. Populated lazily either way.
	shadow []*shadowTable
	// cachedBy is the reverse map: vpn → threads whose shadow table
	// caches a translation for it.
	cachedBy map[uint64]map[guest.TID]struct{}
	// prot is the per-thread protection table, keyed by vpn
	// (ShadowPaging).
	prot map[uint64]*pageProt
	// protFrame is the per-thread protection table keyed by guest-
	// physical frame (NestedPaging: EPT permissions attach to frames).
	protFrame map[vm.FrameID]*pageProt
	// frameVpns reverse-maps frames to the vpns observed mapping them,
	// for EPT-permission invalidation (NestedPaging).
	frameVpns map[vm.FrameID]map[uint64]struct{}
	// mirrors are the registered mirror alias ranges that read through an
	// unprotected alternate EPT view (NestedPaging; see PagingMode).
	mirrors []mirrorRange
	// tempUnprot holds pages temporarily unprotected for the guest
	// kernel (USER bit cleared); restored on the next userspace fault.
	tempUnprot map[uint64]struct{}

	// current is the thread whose shadow table the virtual CPU uses.
	current guest.TID

	// fault delivery registration (AikidoLib, §3.2.5)
	faultPageRead  uint64 // page mapped without read access
	faultPageWrite uint64 // page mapped without write access
	faultAddrSlot  uint64 // guest address where the true fault address is stored

	// clock/costs account hypervisor-internal events (VM exits, walks,
	// view switches). A nil clock disables accounting (unit tests).
	clock *stats.Clock
	costs stats.CostModel

	Stats Stats
}

// New creates an AikidoVM over the guest's page table and registers for its
// update traps. The hypervisor starts in ShadowPaging mode with the
// kernel-hypercall context-switch interception, matching the paper's
// prototype.
func New(m *vm.Machine, pt *pagetable.Table) *Hypervisor {
	h := &Hypervisor{
		m:          m,
		pt:         pt,
		cachedBy:   make(map[uint64]map[guest.TID]struct{}),
		prot:       make(map[uint64]*pageProt),
		protFrame:  make(map[vm.FrameID]*pageProt),
		frameVpns:  make(map[vm.FrameID]map[uint64]struct{}),
		tempUnprot: make(map[uint64]struct{}),
		costs:      stats.DefaultCosts(),
	}
	pt.SetListener(h)
	return h
}

// NewNested creates an AikidoVM in NestedPaging mode (see PagingMode).
func NewNested(m *vm.Machine, pt *pagetable.Table) *Hypervisor {
	h := New(m, pt)
	h.mode = NestedPaging
	return h
}

// Mode reports the paging mode.
func (h *Hypervisor) Mode() PagingMode { return h.mode }

// SetSwitchInterception selects the context-switch interception mechanism.
func (h *Hypervisor) SetSwitchInterception(s SwitchInterception) { h.switchMode = s }

// SwitchMode reports the context-switch interception mechanism.
func (h *Hypervisor) SwitchMode() SwitchInterception { return h.switchMode }

// SetAccounting attaches the simulated clock and cost model used to charge
// hypervisor-internal events. A nil clock disables accounting.
func (h *Hypervisor) SetAccounting(clock *stats.Clock, costs stats.CostModel) {
	h.clock = clock
	h.costs = costs
}

// charge adds n cycles when accounting is enabled.
func (h *Hypervisor) charge(n uint64) {
	if h.clock != nil {
		h.clock.Charge(n)
	}
}

// PTEUpdated implements pagetable.Listener: a guest page-table write.
//
// Under ShadowPaging this is a trapped write (the hypervisor write-protects
// guest page-table pages, §3.2.2): it costs a VM exit plus emulation, and
// the hypervisor applies the change to every thread's shadow table (here:
// invalidates the cached translations, which repopulate with the per-thread
// protection applied, §3.2.4).
//
// Under NestedPaging guest page-table updates need no hypervisor
// involvement at all — the nested-paging advantage — and the invalidation
// below only models the guest's own TLB shootdown.
func (h *Hypervisor) PTEUpdated(vpn uint64, old, new pagetable.PTE) {
	if h.mode == ShadowPaging {
		h.Stats.GuestPTUpdates++
		h.charge(h.costs.PTUpdateTrap)
	}
	h.invalidate(vpn)
}

// shadowOf returns tid's shadow table, or nil if none exists yet.
func (h *Hypervisor) shadowOf(tid guest.TID) *shadowTable {
	if uint32(tid) < uint32(len(h.shadow)) {
		return h.shadow[tid]
	}
	return nil
}

// invalidate drops vpn from every shadow table caching it.
func (h *Hypervisor) invalidate(vpn uint64) {
	for tid := range h.cachedBy[vpn] {
		if st := h.shadowOf(tid); st != nil {
			st.drop(vpn)
		}
		h.Stats.ShadowInvalidations++
	}
	delete(h.cachedBy, vpn)
}

// ContextSwitch implements the guest hook: the guest kernel switched
// threads within the Aikido-enabled process. The hypervisor learns about
// the switch through the configured interception mechanism (§3.2.3) and
// activates the new thread's translation view — its shadow page table under
// ShadowPaging, its EPT permission view under NestedPaging.
func (h *Hypervisor) ContextSwitch(old, new guest.TID) {
	h.current = new
	h.Stats.ContextSwitches++
	h.charge(h.interceptCost() + h.tableSwitchCost())
}

// aikidoProt returns the Aikido-requested protection for (tid, vpn);
// protAll when unrestricted. (ShadowPaging: keyed by virtual page.)
func (h *Hypervisor) aikidoProt(tid guest.TID, vpn uint64) pagetable.Prot {
	pp, ok := h.prot[vpn]
	if !ok {
		return protAll
	}
	if p, ok := pp.override[tid]; ok {
		return p
	}
	return pp.def
}

// protForAccess dispatches the Aikido protection lookup on the paging mode:
// virtual-page keyed under shadow paging, guest-physical-frame keyed (with
// the mirror-alias exemption) under nested paging.
func (h *Hypervisor) protForAccess(tid guest.TID, vpn uint64, frame vm.FrameID) pagetable.Prot {
	if h.mode == NestedPaging {
		return h.nestedProtFor(tid, vpn, frame)
	}
	return h.aikidoProt(tid, vpn)
}

// Fault describes a fault observed by the virtual CPU on a user access.
type Fault struct {
	// Addr is the faulting guest virtual address (the *true* address; the
	// fake delivery address is FakeAddr).
	Addr   uint64
	Access pagetable.Access
	// Aikido is true when the fault was caused by an Aikido per-thread
	// protection rather than the guest page table.
	Aikido bool
	// Unmapped is true for guest faults on unmapped pages.
	Unmapped bool
	// FakeAddr is the address at which an Aikido fault is delivered to
	// the guest signal handler (§3.2.5); zero if delivery pages are not
	// registered.
	FakeAddr uint64
}

// Error implements error.
func (f *Fault) Error() string {
	kind := "guest"
	if f.Aikido {
		kind = "aikido"
	}
	return fmt.Sprintf("%s page fault: %s %#x", kind, f.Access, f.Addr)
}

// Translate resolves one page-aligned-or-contained access for thread tid.
// It serves from the thread's shadow table when possible and otherwise
// performs the two-level walk (guest page table + per-thread protection).
//
// user=false models guest-kernel accesses: Aikido protections are handled
// by emulation (§3.2.6) and never surface as faults; only genuine guest
// faults are returned.
func (h *Hypervisor) Translate(tid guest.TID, addr uint64, a pagetable.Access, user bool) (vm.FrameID, uint64, *Fault) {
	vpn := vm.PageNum(addr)

	// Fast path: shadow table (hardware TLB analogue).
	if st := h.shadowOf(tid); st != nil && user {
		if spte, ok := st.lookup(vpn); ok {
			if spte.prot.Allows(a, true) {
				h.Stats.TLBHits++
				return spte.frame, vm.PageOff(addr), nil
			}
			// Cached entry denies: fall through to the slow path,
			// which classifies the fault.
		}
	}

	// Guest page-table walk (kernel-mode check first: is the access
	// possible at all from the guest's point of view?).
	gpte, gfault := h.pt.Walk(addr, a, user)
	if gfault != nil {
		if user {
			h.Stats.GuestFaults++
		}
		return vm.NoFrame, 0, &Fault{Addr: addr, Access: a, Unmapped: gfault.Unmapped}
	}

	ap := h.protForAccess(tid, vpn, gpte.Frame)

	if !user {
		// Guest kernel access. If Aikido protection would deny it,
		// emulate the access and temporarily unprotect the page with
		// the USER bit cleared (§3.2.6).
		if !ap.Allows(a, false) {
			if _, already := h.tempUnprot[vpn]; !already {
				h.tempUnprot[vpn] = struct{}{}
				h.Stats.TempUnprotects++
				// Clearing the USER bit rewrites the shadow PTE, so
				// cached translations for this page must go.
				h.invalidate(vpn)
			}
			h.Stats.KernelEmulations++
		}
		return gpte.Frame, vm.PageOff(addr), nil
	}

	// Userspace access to a temporarily-unprotected page: restore the
	// original protections on *all* pages the kernel touched, then
	// continue translating (§3.2.6).
	if len(h.tempUnprot) > 0 {
		if _, hit := h.tempUnprot[vpn]; hit {
			h.restoreTempUnprotected()
		}
	}

	eff := gpte.Prot & ap
	if !eff.Allows(a, true) {
		// The guest page table allowed it (walk above passed), so the
		// denial is Aikido's.
		h.Stats.AikidoFaults++
		return vm.NoFrame, 0, h.deliverAikidoFault(addr, a)
	}

	// Populate the translation cache and succeed. Under shadow paging
	// this is a hidden fault filling the thread's shadow page table;
	// under nested paging it is a TLB miss paying the two-dimensional
	// (guest + EPT) walk.
	st := h.shadowOf(tid)
	if st == nil {
		if int(tid) >= len(h.shadow) {
			ns := make([]*shadowTable, int(tid)+1)
			copy(ns, h.shadow)
			h.shadow = ns
		}
		st = &shadowTable{chunks: make(map[uint64]*shadowChunk)}
		h.shadow[tid] = st
	}
	st.set(vpn, shadowPTE{frame: gpte.Frame, prot: eff})
	cb := h.cachedBy[vpn]
	if cb == nil {
		cb = make(map[guest.TID]struct{})
		h.cachedBy[vpn] = cb
	}
	cb[tid] = struct{}{}
	h.Stats.ShadowFills++
	if h.mode == NestedPaging {
		h.noteFrameVpn(gpte.Frame, vpn)
		h.charge(h.costs.EPTWalk)
	} else {
		h.charge(h.costs.ShadowFill)
	}
	return gpte.Frame, vm.PageOff(addr), nil
}

// restoreTempUnprotected re-applies Aikido protections to every page the
// guest kernel had temporarily unprotected.
func (h *Hypervisor) restoreTempUnprotected() {
	for vpn := range h.tempUnprot {
		delete(h.tempUnprot, vpn)
		h.Stats.Reprotects++
	}
}

// deliverAikidoFault constructs the fake-fault delivery of §3.2.5: the
// fault is reported at a pre-registered address whose protection matches
// the access kind, and the true faulting address is written to the
// registered guest memory slot.
func (h *Hypervisor) deliverAikidoFault(addr uint64, a pagetable.Access) *Fault {
	f := &Fault{Addr: addr, Access: a, Aikido: true}
	switch a {
	case pagetable.AccessRead:
		f.FakeAddr = h.faultPageRead
	case pagetable.AccessWrite:
		f.FakeAddr = h.faultPageWrite
	}
	if h.faultAddrSlot != 0 {
		// Write the true address into guest memory at the registered
		// slot (direct frame write; the slot lives in an unprotected
		// AikidoLib page).
		if pte, ok := h.pt.Lookup(vm.PageNum(h.faultAddrSlot)); ok {
			h.m.WriteU(pte.Frame, vm.PageOff(h.faultAddrSlot), 8, addr)
		}
	}
	return f
}

// Access performs a user-mode sized load/store through Translate. An
// access that straddles a page boundary is split by vm.OnPage and served
// by vm.Machine.ReadSplit/WriteSplit, the one split path every memory bus
// shares. Both pages are translated before any side effect, so a fault on
// either leaves no partial store (like a real CPU, the faulting access
// re-executes after the fault is handled).
func (h *Hypervisor) Access(tid guest.TID, addr uint64, size uint8, a pagetable.Access, val uint64, user bool) (uint64, *Fault) {
	f1, off, fault := h.Translate(tid, addr, a, user)
	if fault != nil {
		return 0, fault
	}
	first := vm.OnPage(addr, size)
	if first == size {
		if a == pagetable.AccessWrite {
			h.m.WriteU(f1, off, size, val)
			return 0, nil
		}
		return h.m.ReadU(f1, off, size), nil
	}
	f2, _, fault := h.Translate(tid, addr+uint64(first), a, user)
	if fault != nil {
		return 0, fault
	}
	if a == pagetable.AccessWrite {
		h.m.WriteSplit(f1, off, f2, first, size, val)
		return 0, nil
	}
	return h.m.ReadSplit(f1, off, f2, first, size), nil
}

// Load is a user/kernel load via the MMU.
func (h *Hypervisor) Load(tid guest.TID, addr uint64, size uint8, user bool) (uint64, *Fault) {
	return h.Access(tid, addr, size, pagetable.AccessRead, 0, user)
}

// Store is a user/kernel store via the MMU.
func (h *Hypervisor) Store(tid guest.TID, addr uint64, size uint8, val uint64, user bool) *Fault {
	_, fault := h.Access(tid, addr, size, pagetable.AccessWrite, val, user)
	return fault
}

// TempUnprotectedPages reports how many pages are currently temporarily
// unprotected for the guest kernel (tests).
func (h *Hypervisor) TempUnprotectedPages() int { return len(h.tempUnprot) }

// Current returns the thread whose shadow table is active (tests).
func (h *Hypervisor) Current() guest.TID { return h.current }
