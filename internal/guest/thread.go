package guest

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/pagetable"
	"repro/internal/vm"
)

// ThreadState is a thread's scheduler state.
type ThreadState uint8

// Thread states.
const (
	// Runnable threads are on the run queue (or currently executing).
	Runnable ThreadState = iota
	// Blocked threads wait on a lock, join or barrier.
	Blocked
	// Done threads have halted.
	Done
)

// String returns the state name.
func (s ThreadState) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	}
	return "state?"
}

// Thread is one guest thread. Register state lives here; the DBI engine
// mutates it while the thread executes.
type Thread struct {
	ID    TID
	State ThreadState
	Regs  [isa.NumRegs]uint64
	PC    isa.PC

	// Stack is the thread's private stack VMA.
	Stack *VMA

	// joinWaiters are threads blocked in SysThreadJoin on this thread.
	joinWaiters []TID
	// resumeOnExit is the thread blocked at this thread's spawn point
	// under SchedSerialDFS (spawn runs the child to completion, like a
	// call); NoTID otherwise.
	resumeOnExit TID

	// Instructions counts retired instructions (for stats).
	Instructions uint64
}

// String identifies the thread.
func (t *Thread) String() string { return fmt.Sprintf("thread %d (%s)", t.ID, t.State) }

// newThread allocates a TID and a private stack, initializes registers and
// enqueues the thread.
func (p *Process) newThread(entry isa.PC, arg uint64, creator TID) *Thread {
	id := p.nextTID
	p.nextTID++
	stackBase := isa.StackBase + uint64(id-1)*isa.StackStride
	stack := p.addVMA(stackBase, int(isa.StackSize/vm.PageSize), pagetable.ProtRW,
		VMAStack, fmt.Sprintf("stack%d", id))
	t := &Thread{ID: id, State: Runnable, PC: entry, Stack: stack}
	t.Regs[isa.R0] = arg
	t.Regs[isa.TP] = stack.Base
	t.Regs[isa.SP] = stack.End() - 8
	p.threads[id] = t
	p.runq = append(p.runq, id)
	if p.Hooks.ThreadStarted != nil {
		p.Hooks.ThreadStarted(t, creator)
	}
	return t
}

// Thread returns the thread with the given id, or nil.
func (p *Process) Thread(id TID) *Thread { return p.threads[id] }

// Threads returns all thread ids in creation order.
func (p *Process) Threads() []TID {
	out := make([]TID, 0, len(p.threads))
	for id := TID(1); id < p.nextTID; id++ {
		if _, ok := p.threads[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// Current returns the currently scheduled thread, or nil when the process
// has no runnable work.
func (p *Process) Current() *Thread {
	if p.current == NoTID {
		return nil
	}
	return p.threads[p.current]
}

// Alive reports whether any thread can still make progress.
func (p *Process) Alive() bool {
	if p.Exited {
		return false
	}
	for _, t := range p.threads {
		if t.State != Done {
			return true
		}
	}
	return false
}

// Deadlocked reports whether live threads exist but none are runnable.
func (p *Process) Deadlocked() bool {
	if !p.Alive() {
		return false
	}
	for _, t := range p.threads {
		if t.State == Runnable {
			return false
		}
	}
	return true
}

// Schedule picks the next runnable thread (FIFO round-robin) and makes it
// current, firing the ContextSwitch hook on a change. It returns the newly
// current thread, or nil if nothing is runnable.
func (p *Process) Schedule() *Thread {
	old := p.current
	// Rotate the current thread (if still runnable) to the back.
	if cur, ok := p.threads[old]; ok && cur.State == Runnable {
		p.runq = append(p.runq, old)
	}
	next := NoTID
	for len(p.runq) > 0 {
		cand := p.runq[0]
		p.runq = p.runq[1:]
		if t, ok := p.threads[cand]; ok && t.State == Runnable {
			next = cand
			break
		}
	}
	p.current = next
	if next == NoTID {
		return nil
	}
	if next != old {
		p.ContextSwitches++
		if p.Hooks.ContextSwitch != nil {
			p.Hooks.ContextSwitch(old, next)
		}
	}
	return p.threads[next]
}

// block marks the current thread blocked and schedules another. The caller
// must have queued the thread on some wait list.
func (p *Process) block(t *Thread) {
	t.State = Blocked
	p.Schedule()
}

// wake makes a blocked thread runnable again.
func (p *Process) wake(id TID) {
	t, ok := p.threads[id]
	if !ok || t.State != Blocked {
		panic(fmt.Sprintf("guest: wake of %v in state %v", id, t.State))
	}
	t.State = Runnable
	p.runq = append(p.runq, id)
	// If nothing was current (everyone was blocked), schedule immediately.
	if p.current == NoTID {
		p.Schedule()
	}
}

// ExitThread halts t, wakes joiners, and reschedules if t was current.
func (p *Process) ExitThread(t *Thread) {
	t.State = Done
	if p.Hooks.ThreadExited != nil {
		p.Hooks.ThreadExited(t)
	}
	if t.resumeOnExit != NoTID {
		// Serial-DFS spawn return: the parent resumes at the point after
		// the spawn (no happens-before join edge yet — only the explicit
		// join makes one).
		p.wake(t.resumeOnExit)
		t.resumeOnExit = NoTID
	}
	for _, w := range t.joinWaiters {
		p.wake(w)
		if p.Hooks.ThreadJoined != nil {
			p.Hooks.ThreadJoined(w, t)
		}
	}
	t.joinWaiters = nil
	if p.current == t.ID {
		p.Schedule()
	}
}
