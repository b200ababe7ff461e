package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/provider"
	"repro/internal/vm"
)

// splitWord is the value stored across the page boundary. Its bytes spell
// "ABCDEFGH" so the console shows which half landed where.
const splitWord = 0x4847464544434241

// straddleProgram stores splitWord with an 8-byte access at page offset
// 4092, so the low four bytes land on one page and the high four on the
// next. With shared set, a worker thread reads the word and writes it back
// before main reads it, so both pages are touched by two threads. Main
// then prints the eight bytes through the write syscall and exits with the
// value its own straddling load returned.
func straddleProgram(shared bool) *isa.Program {
	b := isa.NewBuilder("straddle")
	base := b.Global(2*vm.PageSize, vm.PageSize)
	addr := int64(base + vm.PageSize - 4)
	b.MovImm(isa.R1, int64(base))
	b.MovImm(isa.R2, splitWord)
	b.Store(isa.R1, vm.PageSize-4, isa.R2)
	if shared {
		b.MovImm(isa.R5, int64(base))
		b.ThreadCreate("worker", isa.R5)
		b.ThreadJoin(isa.R0)
	}
	b.Load(isa.R3, isa.R1, vm.PageSize-4)
	b.MovImm(isa.R0, addr)
	b.MovImm(isa.R1, 8)
	b.Syscall(isa.SysWrite)
	b.Mov(isa.R0, isa.R3)
	b.Syscall(isa.SysExit)
	if shared {
		b.Label("worker")
		b.Load(isa.R6, isa.R0, vm.PageSize-4)
		b.Store(isa.R0, vm.PageSize-4, isa.R6)
		b.Halt()
	}
	return b.MustFinish()
}

// TestPageStraddlingAccess runs an 8-byte access that straddles a page
// boundary through every memory bus: native and FastTrack-full walk the
// guest page table directly, Aikido-FastTrack goes through the hypervisor,
// and the DOS and DTHREADS providers through their protection engine.
// Every run must finish, and the loaded value must equal the stored one.
func TestPageStraddlingAccess(t *testing.T) {
	type cell struct {
		name string
		mode Mode
		prov provider.Kind
	}
	cells := []cell{
		{"native", ModeNative, provider.AikidoVM},
		{"fasttrack-full", ModeFastTrackFull, provider.AikidoVM},
		{"aikido", ModeAikidoFastTrack, provider.AikidoVM},
		{"aikido-dos", ModeAikidoFastTrack, provider.DOS},
		{"aikido-dthreads", ModeAikidoFastTrack, provider.Dthreads},
	}
	for _, shared := range []bool{false, true} {
		prog := straddleProgram(shared)
		for _, c := range cells {
			cfg := DefaultConfig(c.mode)
			cfg.Provider = c.prov
			res, err := Run(prog, cfg)
			if err != nil {
				t.Errorf("%s (shared=%v): %v", c.name, shared, err)
				continue
			}
			if uint64(res.ExitCode) != splitWord {
				t.Errorf("%s (shared=%v): loaded %#x, stored %#x", c.name, shared, uint64(res.ExitCode), uint64(splitWord))
			}
			if res.Console != "ABCDEFGH" {
				t.Errorf("%s (shared=%v): console %q, want %q", c.name, shared, res.Console, "ABCDEFGH")
			}
		}
	}
}
