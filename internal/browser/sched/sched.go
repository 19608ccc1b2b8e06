// Package sched implements the renderer's task scheduler: per-thread event
// loops with cross-thread task posting, delayed tasks on a virtual clock,
// and the synchronization overhead (queue locks, futex wakes) that real
// Chromium threads pay. All threads execute sequentially on the traced
// machine, matching the paper's single-core trace collection.
//
// The dispatch bookkeeping is itself traced: queue-lock handshakes run under
// the base/threading namespace (the paper's Multi-threading category) and
// queue management under base/message_loop (the bulk of its Other category),
// so scheduler overhead shows up in the characterization exactly where the
// paper found it.
package sched

import (
	"container/heap"
	"fmt"

	"webslice/internal/isa"
	"webslice/internal/vm"
	"webslice/internal/vmem"
)

// CyclesPerMs converts the virtual clock (1 instruction = 1 cycle) to
// simulated wall time. The traces are scaled ~1/1000 from the paper's
// billions of instructions, so one virtual microsecond per instruction keeps
// time constants (frame intervals, network latency) meaningful.
const CyclesPerMs = 1000

// FrameIntervalCycles is the 60 Hz BeginFrame interval.
const FrameIntervalCycles = 16 * CyclesPerMs

// Task is one unit of work queued to a thread.
type Task struct {
	Thread    uint8
	Name      string
	Ready     uint64
	Run       func()
	seq       int
	cancelled bool
}

// Timer is a handle on a delayed task that may be cancelled before it fires
// (Chromium's CancelableTaskTracker). A cancelled task is skipped by the
// dispatch loop without advancing the virtual clock to its deadline.
type Timer struct {
	s *Scheduler
	t *Task
}

// Cancel marks the task cancelled and pays the traced dequeue bookkeeping
// (the queue's pending count drops without a dispatch). It reports whether
// the task was still pending; cancelling a fired or already-cancelled task
// is a no-op.
func (tm *Timer) Cancel() bool {
	if tm == nil || tm.t == nil || tm.t.cancelled || tm.t.Run == nil {
		return false
	}
	s, m := tm.s, tm.s.M
	tm.t.cancelled = true
	tm.t.Run = nil
	s.cancelled++
	s.Cancelled++
	lock, head := s.cells(tm.t.Thread)
	m.Call(s.cancelFn, func() {
		m.Call(s.lockFn, func() {
			m.At("spin")
			v := m.LoadU32(lock)
			c := m.OpImm(isa.OpCmpEQ, v, 0)
			m.Branch(c)
			m.StoreU32(lock, m.Imm(1))
		})
		m.At("drop")
		n := m.LoadU32(head)
		nz := m.OpImm(isa.OpCmpGT, n, 0)
		if m.Branch(nz) {
			m.StoreU32(head, m.OpImm(isa.OpSub, n, 1))
		}
		m.Call(s.unlockFn, func() {
			m.StoreU32(lock, m.Imm(0))
		})
	})
	return true
}

type taskHeap []*Task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].Ready != h[j].Ready {
		return h[i].Ready < h[j].Ready
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*Task)) }
func (h *taskHeap) Pop() any     { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }

// Scheduler owns all thread queues.
type Scheduler struct {
	M *vm.Machine

	tasks taskHeap
	seq   int

	queueLock map[uint8]vmem.Addr // one lock word per thread queue
	queueHead map[uint8]vmem.Addr // queue bookkeeping cell
	fnCache   map[string]*vm.Fn

	lockFn, unlockFn, pumpFn, timerFn, cancelFn *vm.Fn

	// cancelled counts tasks still in the heap whose Timer was cancelled.
	cancelled int

	// OnDispatch, if set, runs after each task's dequeue bookkeeping and
	// before the task body (Chromium records task-timing histograms on
	// every dispatch; the browser wires this to the debug log).
	OnDispatch func()

	// Stats
	Dispatched int
	Cancelled  int
	IdleCycles uint64
}

// New creates a scheduler over the machine. Register threads on the machine
// before posting to them.
func New(m *vm.Machine) *Scheduler {
	s := &Scheduler{
		M:         m,
		queueLock: make(map[uint8]vmem.Addr),
		queueHead: make(map[uint8]vmem.Addr),
		fnCache:   make(map[string]*vm.Fn),
		lockFn:    m.Func("base::internal::SpinLock::Acquire", "base/threading"),
		unlockFn:  m.Func("base::internal::SpinLock::Release", "base/threading"),
		pumpFn:    m.Func("base::MessagePumpDefault::Run", "base/message_loop"),
		timerFn:   m.Func("base::TimeTicks::Now", "base/message_loop"),
		cancelFn:  m.Func("base::DelayedTaskManager::Cancel", "base/message_loop"),
	}
	return s
}

func (s *Scheduler) cells(tid uint8) (lock, head vmem.Addr) {
	lock, ok := s.queueLock[tid]
	if !ok {
		lock = s.M.Heap.Alloc(8)
		head = s.M.Heap.Alloc(16)
		s.queueLock[tid] = lock
		s.queueHead[tid] = head
	}
	return s.queueLock[tid], s.queueHead[tid]
}

// taskFn returns the traced function symbol for a task name (shared across
// tasks with the same name so the symbol table stays bounded).
func (s *Scheduler) taskFn(name string) *vm.Fn {
	if fn, ok := s.fnCache[name]; ok {
		return fn
	}
	fn := s.M.Func(name, namespaceOf(name))
	s.fnCache[name] = fn
	return fn
}

// namespaceOf derives the namespace from a task name of the form
// "namespace!Rest"; tasks without one land in the message loop namespace.
func namespaceOf(name string) string {
	for i := 0; i+1 < len(name); i++ {
		if name[i] == '!' {
			return name[:i]
		}
	}
	return "base/message_loop"
}

// Post queues a task on a thread, runnable immediately. Posting across
// threads pays the traced lock handshake plus a futex wake, as in Chromium.
func (s *Scheduler) Post(tid uint8, name string, run func()) {
	s.PostDelayed(tid, name, 0, run)
}

// PostDelayed queues a task runnable after delay cycles.
func (s *Scheduler) PostDelayed(tid uint8, name string, delay uint64, run func()) {
	s.PostDelayedCancellable(tid, name, delay, run)
}

// PostDelayedCancellable queues a delayed task and returns a Timer handle
// that can cancel it before it fires (used for per-request network timeouts).
func (s *Scheduler) PostDelayedCancellable(tid uint8, name string, delay uint64, run func()) *Timer {
	m := s.M
	lock, head := s.cells(tid)
	cross := m.Cur() != nil && m.Cur().ID != tid
	// Enqueue handshake: acquire the queue lock, bump the pending count,
	// release; cross-thread posts also wake the target with a futex.
	m.Call(s.lockFn, func() {
		m.At("spin")
		v := m.LoadU32(lock)
		c := m.OpImm(isa.OpCmpEQ, v, 0)
		m.Branch(c)
		m.StoreU32(lock, m.Imm(1))
	})
	n := m.LoadU32(head)
	m.StoreU32(head, m.AddImm(n, 1))
	m.Call(s.unlockFn, func() {
		m.StoreU32(lock, m.Imm(0))
	})
	if cross {
		m.Syscall(isa.SysFutex, isa.RegNone, isa.RegNone,
			[]vmem.Range{{Addr: lock, Size: 4}}, nil, nil)
	}
	s.seq++
	t := &Task{Thread: tid, Name: name, Ready: m.Cycle() + delay, Run: run, seq: s.seq}
	heap.Push(&s.tasks, t)
	return &Timer{s: s, t: t}
}

// PostAt queues a task runnable at an absolute cycle.
func (s *Scheduler) PostAt(tid uint8, name string, at uint64, run func()) {
	now := s.M.Cycle()
	var delay uint64
	if at > now {
		delay = at - now
	}
	s.PostDelayed(tid, name, delay, run)
}

// Run drains the task queues: repeatedly dispatch the earliest-runnable
// task, idling the virtual clock when nothing is ready. Tasks may post more
// tasks. Returns when all queues are empty.
func (s *Scheduler) Run() {
	m := s.M
	for s.tasks.Len() > 0 {
		t := heap.Pop(&s.tasks).(*Task)
		if t.cancelled {
			// Cancelled timers are discarded without idling the clock to
			// their deadline — cancellation is the whole point.
			s.cancelled--
			continue
		}
		if t.Ready > m.Cycle() {
			s.IdleCycles += t.Ready - m.Cycle()
			m.Idle(t.Ready - m.Cycle())
		}
		m.Switch(t.Thread)
		lock, head := s.cells(t.Thread)
		// Dispatch bookkeeping on the dequeuing thread: timer read, lock,
		// pop, unlock.
		m.Call(s.pumpFn, func() {
			m.Call(s.timerFn, func() {
				ts := m.Heap.Alloc(16)
				m.Syscall(isa.SysClockGettime, isa.RegNone, isa.RegNone,
					nil, []vmem.Range{{Addr: ts, Size: 16}}, []byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
			})
			m.Call(s.lockFn, func() {
				m.At("spin")
				v := m.LoadU32(lock)
				c := m.OpImm(isa.OpCmpEQ, v, 0)
				m.Branch(c)
				m.StoreU32(lock, m.Imm(1))
			})
			m.At("pop")
			n := m.LoadU32(head)
			z := m.OpImm(isa.OpCmpGT, n, 0)
			if m.Branch(z) {
				m.At("dec")
				m.StoreU32(head, m.OpImm(isa.OpSub, n, 1))
			}
			m.Call(s.unlockFn, func() {
				m.StoreU32(lock, m.Imm(0))
			})
		})
		s.Dispatched++
		if s.OnDispatch != nil {
			s.OnDispatch()
		}
		run := t.Run
		t.Run = nil // a fired task can no longer be cancelled (Timer.Cancel)
		m.Call(s.taskFn(t.Name), run)
	}
}

// Pending reports how many live (non-cancelled) tasks are queued.
func (s *Scheduler) Pending() int { return s.tasks.Len() - s.cancelled }

// String describes the scheduler state.
func (s *Scheduler) String() string {
	return fmt.Sprintf("sched{pending=%d dispatched=%d idle=%d}", s.tasks.Len(), s.Dispatched, s.IdleCycles)
}
