package sched

import (
	"testing"

	"webslice/internal/isa"
	"webslice/internal/vm"
)

func newSched(t *testing.T) (*vm.Machine, *Scheduler) {
	t.Helper()
	m := vm.New()
	m.Thread(0, "main")
	m.Thread(1, "worker")
	return m, New(m)
}

func TestFIFOWithinThread(t *testing.T) {
	m, s := newSched(t)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Post(0, "task", func() { order = append(order, i) })
	}
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v", order)
		}
	}
	if s.Dispatched != 5 {
		t.Errorf("dispatched = %d", s.Dispatched)
	}
	_ = m
}

func TestDelayedOrderingAndIdle(t *testing.T) {
	m, s := newSched(t)
	var order []string
	s.PostDelayed(0, "late", 5000, func() { order = append(order, "late") })
	s.Post(0, "now", func() { order = append(order, "now") })
	start := m.Cycle()
	s.Run()
	if len(order) != 2 || order[0] != "now" || order[1] != "late" {
		t.Fatalf("order = %v", order)
	}
	if m.Cycle()-start < 5000 {
		t.Error("virtual clock did not advance past the delay")
	}
	if s.IdleCycles == 0 {
		t.Error("waiting for the delayed task should register idle time")
	}
}

func TestCrossThreadPostEmitsFutex(t *testing.T) {
	m, s := newSched(t)
	m.Switch(0)
	s.Post(1, "cross", func() {})
	futexes := 0
	for i, eff := range m.Tr.Sys {
		_ = i
		if eff.Num == isa.SysFutex {
			futexes++
		}
	}
	if futexes == 0 {
		t.Error("cross-thread post must wake the target with a futex")
	}
	s.Run()
}

func TestTasksSwitchThreads(t *testing.T) {
	m, s := newSched(t)
	var ran []uint8
	s.Post(1, "w", func() { ran = append(ran, m.Cur().ID) })
	s.Post(0, "m", func() { ran = append(ran, m.Cur().ID) })
	s.Run()
	seen := map[uint8]bool{}
	for _, tid := range ran {
		seen[tid] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("threads ran: %v", ran)
	}
}

func TestTasksCanPostTasks(t *testing.T) {
	_, s := newSched(t)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 4 {
			s.Post(0, "again", recurse)
		}
	}
	s.Post(0, "seed", recurse)
	s.Run()
	if depth != 4 {
		t.Errorf("depth = %d", depth)
	}
	if s.Pending() != 0 {
		t.Error("queue should drain")
	}
}

func TestNamespaceOfTaskNames(t *testing.T) {
	if ns := namespaceOf("cc!Draw"); ns != "cc" {
		t.Errorf("namespaceOf = %q", ns)
	}
	if ns := namespaceOf("plain"); ns != "base/message_loop" {
		t.Errorf("default namespace = %q", ns)
	}
}

func TestOnDispatchHookRuns(t *testing.T) {
	_, s := newSched(t)
	hooks := 0
	s.OnDispatch = func() { hooks++ }
	s.Post(0, "a", func() {})
	s.Post(0, "b", func() {})
	s.Run()
	if hooks != 2 {
		t.Errorf("hooks = %d", hooks)
	}
}

func TestDelayedTasksFireInDeadlineOrder(t *testing.T) {
	_, s := newSched(t)
	var order []string
	s.PostDelayed(0, "c", 9000, func() { order = append(order, "c") })
	s.PostDelayed(0, "a", 1000, func() { order = append(order, "a") })
	s.PostDelayed(0, "b", 4000, func() { order = append(order, "b") })
	s.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestDelayedTiesAtSameCycleKeepPostOrder(t *testing.T) {
	_, s := newSched(t)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		s.PostDelayed(0, "tie", 2000, func() { order = append(order, i) })
	}
	s.Run()
	if len(order) != 4 {
		t.Fatalf("ran %d of 4 tied tasks", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("tied tasks reordered: %v", order)
		}
	}
}

func TestCancelBeforeFiring(t *testing.T) {
	m, s := newSched(t)
	fired := false
	tm := s.PostDelayedCancellable(0, "doomed", 5000, func() { fired = true })
	start := m.Cycle()
	if !tm.Cancel() {
		t.Fatal("first Cancel must succeed")
	}
	if tm.Cancel() {
		t.Error("second Cancel must be a no-op")
	}
	s.Run()
	if fired {
		t.Error("cancelled timer ran anyway")
	}
	if s.Cancelled != 1 {
		t.Errorf("Cancelled = %d", s.Cancelled)
	}
	// A cancelled timer must not drag the virtual clock to its deadline.
	if m.Cycle()-start >= 5000 {
		t.Error("clock advanced to the cancelled timer's deadline")
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after drain", s.Pending())
	}
}

func TestCancelAfterFiringIsNoop(t *testing.T) {
	_, s := newSched(t)
	fired := false
	tm := s.PostDelayedCancellable(0, "quick", 100, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("timer did not fire")
	}
	if tm.Cancel() {
		t.Error("Cancel after firing must report false")
	}
	if s.Cancelled != 0 {
		t.Errorf("Cancelled = %d, want 0", s.Cancelled)
	}
}

func TestCancelledTimerBetweenLiveTimers(t *testing.T) {
	m, s := newSched(t)
	var order []string
	s.PostDelayed(0, "first", 1000, func() { order = append(order, "first") })
	tm := s.PostDelayedCancellable(0, "mid", 3000, func() { order = append(order, "mid") })
	s.PostDelayed(0, "last", 6000, func() { order = append(order, "last") })
	tm.Cancel()
	start := m.Cycle()
	s.Run()
	if len(order) != 2 || order[0] != "first" || order[1] != "last" {
		t.Fatalf("order = %v", order)
	}
	if m.Cycle()-start < 6000 {
		t.Error("surviving timers must still reach their deadlines")
	}
}

func TestTimerRacePattern(t *testing.T) {
	// The loader's timeout-vs-response race: whichever side settles first
	// cancels the other; exactly one wins.
	_, s := newSched(t)
	winner := ""
	settled := false
	tm := s.PostDelayedCancellable(0, "timeout", 4000, func() {
		if !settled {
			settled = true
			winner = "timeout"
		}
	})
	s.PostDelayed(0, "response", 1500, func() {
		if !settled {
			settled = true
			winner = "response"
			tm.Cancel()
		}
	})
	s.Run()
	if winner != "response" {
		t.Errorf("winner = %q", winner)
	}
	if s.Cancelled != 1 {
		t.Errorf("Cancelled = %d", s.Cancelled)
	}
}
