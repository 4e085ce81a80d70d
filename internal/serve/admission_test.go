package serve

import (
	"testing"
	"time"
)

func TestAdmissionQueueCap(t *testing.T) {
	// maxWait generous: only the depth cap should shed.
	a := NewAdmission(3, time.Hour, time.Millisecond, 1)
	var tickets []*Ticket
	for i := 0; i < 3; i++ {
		tk, _, ok := a.Admit(1)
		if !ok {
			t.Fatalf("admit %d under cap refused", i)
		}
		tickets = append(tickets, tk)
	}
	if _, retry, ok := a.Admit(1); ok || retry <= 0 {
		t.Fatalf("admit at cap: ok=%v retry=%v, want refusal with positive retry", ok, retry)
	}
	_, shedQueue, _, hw := statsOf(a)
	if shedQueue != 1 || hw != 3 {
		t.Fatalf("shedQueue=%d highWater=%d, want 1, 3", shedQueue, hw)
	}
	// Releasing one queued ticket frees a slot.
	tickets[0].Cancel()
	if _, _, ok := a.Admit(1); !ok {
		t.Fatal("admit after cancel refused")
	}
}

func TestAdmissionWaitProjectionShedsBeforeSaturation(t *testing.T) {
	// 1 worker at 100ms per unit, budget 250ms: the 4th unit of queued
	// work projects 400ms and must shed with the queue only 3 deep —
	// well under the 100-deep cap.
	a := NewAdmission(100, 250*time.Millisecond, 100*time.Millisecond, 1)
	for i := 0; i < 2; i++ {
		if _, _, ok := a.Admit(1); !ok {
			t.Fatalf("admit %d inside budget refused", i)
		}
	}
	tk, _, ok := a.Admit(0.5) // projected 250ms: exactly at budget, allowed
	if !ok {
		t.Fatal("admit at exactly the budget refused")
	}
	_ = tk
	_, retry, ok := a.Admit(1) // projected 350ms: over budget
	if ok {
		t.Fatal("admit over the wait budget allowed")
	}
	if retry < 250*time.Millisecond {
		t.Fatalf("retry %v should reflect the projected drain time", retry)
	}
	_, shedQueue, shedWait, hw := statsOf(a)
	if shedQueue != 0 || shedWait != 1 {
		t.Fatalf("sheds = (queue %d, wait %d), want (0, 1)", shedQueue, shedWait)
	}
	if hw != 3 {
		t.Fatalf("highWater = %d, want 3", hw)
	}
}

func TestAdmissionTicketLifecycle(t *testing.T) {
	a := NewAdmission(10, time.Hour, time.Millisecond, 2)
	tk, _, ok := a.Admit(1)
	if !ok {
		t.Fatal("admit refused")
	}
	if got := a.Outstanding(); got != 1 {
		t.Fatalf("outstanding after admit = %d, want 1", got)
	}
	tk.Start()
	if got := a.Outstanding(); got != 1 {
		t.Fatalf("outstanding after start = %d, want 1", got)
	}
	// Start and Done are idempotent; Cancel after Start is a no-op.
	tk.Start()
	tk.Cancel()
	tk.Done()
	tk.Done()
	if got := a.Outstanding(); got != 0 {
		t.Fatalf("outstanding after done = %d, want 0", got)
	}
}

func TestAdmissionAwaitIdle(t *testing.T) {
	a := NewAdmission(10, time.Hour, time.Millisecond, 2)
	tk, _, _ := a.Admit(1)
	done := make(chan struct{})
	idle := make(chan bool, 1)
	go func() { idle <- a.AwaitIdle(done) }()
	select {
	case <-idle:
		t.Fatal("AwaitIdle returned with work outstanding")
	case <-time.After(10 * time.Millisecond):
	}
	tk.Start()
	tk.Done()
	select {
	case ok := <-idle:
		if !ok {
			t.Fatal("AwaitIdle reported not idle after release")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AwaitIdle did not wake on release")
	}

	// A cancelled wait reports false while work remains.
	tk2, _, _ := a.Admit(1)
	cancelled := make(chan struct{})
	close(cancelled)
	if a.AwaitIdle(cancelled) {
		t.Fatal("AwaitIdle reported idle with a live ticket")
	}
	tk2.Cancel()
}

func TestAdmissionClose(t *testing.T) {
	a := NewAdmission(10, time.Hour, time.Millisecond, 2)
	tk, _, ok := a.Admit(1)
	if !ok {
		t.Fatal("admit before close refused")
	}
	a.Close()
	if _, _, ok := a.Admit(1); ok {
		t.Fatal("admit after close succeeded")
	}
	// A closed refusal is neither a queue nor a wait shed.
	if admitted, shedQueue, shedWait, _ := statsOf(a); admitted != 1 || shedQueue != 0 || shedWait != 0 {
		t.Fatalf("stats after closed refusal = (%d, %d, %d), want (1, 0, 0)", admitted, shedQueue, shedWait)
	}
	// The ticket admitted before Close still holds AwaitIdle.
	idle := make(chan bool, 1)
	go func() { idle <- a.AwaitIdle(nil) }()
	select {
	case <-idle:
		t.Fatal("AwaitIdle returned with a pre-close ticket outstanding")
	case <-time.After(20 * time.Millisecond):
	}
	tk.Start()
	tk.Done()
	select {
	case ok := <-idle:
		if !ok {
			t.Fatal("AwaitIdle reported not idle after release")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AwaitIdle did not wake on release")
	}
}

func statsOf(a *Admission) (admitted, shedQueue, shedWait uint64, hw int) {
	return a.Stats()
}
