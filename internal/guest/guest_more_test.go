package guest

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/vm"
)

func TestSysYield(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	main := p.Current()
	res, err := p.DoSyscall(main, isa.SysYield)
	if err != nil || res != SyscallYield {
		t.Errorf("yield: %v %v", res, err)
	}
}

func TestUnknownSyscall(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	if _, err := p.DoSyscall(p.Current(), 999); err == nil {
		t.Error("unknown syscall accepted")
	}
}

func TestMmapSyscallPath(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	main := p.Current()
	main.Regs[isa.R0] = 2 * vm.PageSize
	main.Regs[isa.R1] = 0 // default protection
	res, err := p.DoSyscall(main, isa.SysMmap)
	if err != nil || res != SyscallDone {
		t.Fatalf("mmap: %v %v", res, err)
	}
	base := main.Regs[isa.R0]
	if v := p.FindVMA(base); v == nil || v.Prot != pagetable.ProtRW {
		t.Errorf("mmap result VMA: %v", v)
	}
	// munmap syscall path.
	main.Regs[isa.R0] = base
	if _, err := p.DoSyscall(main, isa.SysMunmap); err != nil {
		t.Fatal(err)
	}
	if p.FindVMA(base) != nil {
		t.Error("munmap syscall did not unmap")
	}
	// munmap of garbage errors.
	main.Regs[isa.R0] = 0xdead000
	if _, err := p.DoSyscall(main, isa.SysMunmap); err == nil {
		t.Error("bad munmap accepted")
	}
}

func TestBrkSyscallPath(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	main := p.Current()
	main.Regs[isa.R0] = 0
	p.DoSyscall(main, isa.SysBrk)
	if main.Regs[isa.R0] != isa.HeapBase {
		t.Errorf("brk(0) = %#x", main.Regs[isa.R0])
	}
	main.Regs[isa.R0] = isa.HeapBase + 100
	p.DoSyscall(main, isa.SysBrk)
	if main.Regs[isa.R0] != isa.HeapBase+vm.PageSize {
		t.Errorf("brk grow = %#x", main.Regs[isa.R0])
	}
}

func TestWriteSyscallLengthGuard(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	main := p.Current()
	main.Regs[isa.R0] = isa.DataBase
	main.Regs[isa.R1] = 1 << 30 // absurd length
	if _, err := p.DoSyscall(main, isa.SysWrite); err == nil {
		t.Error("giant write accepted")
	}
}

func TestWriteSyscallFaultingBuffer(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	main := p.Current()
	main.Regs[isa.R0] = 0x7777_0000_0000 // unmapped
	main.Regs[isa.R1] = 4
	if _, err := p.DoSyscall(main, isa.SysWrite); err == nil {
		t.Error("write from unmapped buffer succeeded")
	}
}

func TestThreadCreateBadEntry(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	main := p.Current()
	main.Regs[isa.R0] = 1 << 30 // entry far out of range
	if _, err := p.DoSyscall(main, isa.SysThreadCreate); err == nil {
		t.Error("out-of-range entry accepted")
	}
}

func TestJoinUnknownThread(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	main := p.Current()
	main.Regs[isa.R0] = 99
	if _, err := p.DoSyscall(main, isa.SysThreadJoin); err == nil {
		t.Error("join of unknown thread accepted")
	}
}

func TestVMAStringAndKinds(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	v := p.FindVMA(isa.CodeBase)
	s := v.String()
	if !strings.Contains(s, "code") || !strings.Contains(s, "text") {
		t.Errorf("VMA string: %q", s)
	}
	kinds := []VMAKind{VMACode, VMAData, VMAHeap, VMAStack, VMAMmap, VMAShadow, VMAMirror}
	for _, k := range kinds {
		if k.String() == "vma?" {
			t.Errorf("kind %d unnamed", k)
		}
	}
}

func TestThreadStateStrings(t *testing.T) {
	for _, s := range []ThreadState{Runnable, Blocked, Done} {
		if s.String() == "state?" {
			t.Errorf("state %d unnamed", s)
		}
	}
}

func TestThreadsListing(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	p.newThread(0, 0, 1)
	p.newThread(0, 0, 1)
	ids := p.Threads()
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Errorf("Threads = %v", ids)
	}
	if p.Thread(2) == nil || p.Thread(9) != nil {
		t.Error("Thread lookup wrong")
	}
}

func TestOverlappingVMAPanics(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	defer func() {
		if recover() == nil {
			t.Error("overlapping VMA accepted")
		}
	}()
	p.MapShadow(isa.DataBase, 1, "overlap")
}

func TestKernelReadBytes(t *testing.T) {
	b := isa.NewBuilder("krb")
	addr := b.Global(16, 8)
	copy(b.Data()[addr-isa.DataBase:], "kernelread")
	b.Nop().Halt()
	p := newProc(t, b.MustFinish())
	got, fault := p.KernelReadBytes(1, addr, 10)
	if fault != nil || string(got) != "kernelread" {
		t.Errorf("KernelReadBytes = %q, %v", got, fault)
	}
	if _, fault := p.KernelReadBytes(1, 0xdead0000, 1); fault == nil {
		t.Error("kernel read of unmapped memory succeeded")
	}
}

func TestStackStride(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	t2 := p.newThread(0, 0, 1)
	main := p.Current()
	if t2.Stack.Base-main.Stack.Base != isa.StackStride {
		t.Errorf("stack stride = %#x", t2.Stack.Base-main.Stack.Base)
	}
}

func TestWakePanicsOnBadState(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	defer func() {
		if recover() == nil {
			t.Error("waking a runnable thread did not panic")
		}
	}()
	p.wake(1) // main is Runnable, not Blocked
}

// TestDirectBusSplitsStraddlingAccess: the default kernel bus serves an
// access that straddles a page boundary from both frames, and a fault on
// the second page names that page and leaves the first untouched.
func TestDirectBusSplitsStraddlingAccess(t *testing.T) {
	p := newProc(t, tinyProgram(t))
	b := directBus{p}
	const v = 0x8877665544332211
	two := p.Mmap(2*vm.PageSize, pagetable.ProtRW)
	for first := uint64(1); first < 8; first++ {
		addr := two + vm.PageSize - first
		if fault := b.Store(1, addr, 8, v, false); fault != nil {
			t.Fatalf("split %d: store faulted: %v", first, fault)
		}
		got, fault := b.Load(1, addr, 8, false)
		if fault != nil || got != v {
			t.Errorf("split %d: load = %#x, %v; want %#x", first, got, fault, uint64(v))
		}
	}
	// The page after a one-page mapping is the unmapped guard gap.
	one := p.Mmap(vm.PageSize, pagetable.ProtRW)
	addr := one + vm.PageSize - 4
	fault := b.Store(1, addr, 8, v, false)
	if fault == nil || fault.Addr != one+vm.PageSize || !fault.Unmapped {
		t.Fatalf("store into the guard page: fault %+v, want unmapped at %#x", fault, one+vm.PageSize)
	}
	if got, _ := b.Load(1, addr, 4, false); got != 0 {
		t.Errorf("faulting store left %#x on the first page, want no partial store", got)
	}
}
