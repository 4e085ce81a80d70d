// Fixture: by-value copies of lock-holding and typed-atomic structs,
// which go vet's copylocks pass flags and the lint suite therefore does
// not. TestVetCopyLocks requires a vet diagnostic on every want line and
// none elsewhere.
package a

import (
	"sync"
	"sync/atomic"
)

type counter struct {
	mu sync.Mutex
	n  int
}

type registry struct {
	counters map[string]*counter
	c        counter // transitively holds the lock
}

type embedder struct {
	sync.RWMutex
	name string
}

func (c counter) Get() int { // want `Get passes lock by value`
	return c.n
}

func (c *counter) Inc() { // pointer receiver: fine
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func snapshot(r registry) int { // want `snapshot passes lock by value`
	return len(r.counters)
}

func rename(e embedder, name string) { // want `rename passes lock by value`
	e.name = name
}

func wait(wg sync.WaitGroup) { // want `wait passes lock by value`
	wg.Wait()
}

func byPointer(r *registry, wg *sync.WaitGroup) { // pointers share, not copy: fine
	_ = r
	wg.Wait()
}

func plainStruct(s struct{ a, b int }) int { // no lock: fine
	return s.a + s.b
}

func byValue(c counter) int { // want `byValue passes lock by value`
	return c.n
}

type published struct {
	table atomic.Pointer[counter]
	name  string
}

func copyRecv(p published) string { // want `copyRecv passes lock by value`
	return p.name
}

func copyAssign(p *published) string {
	q := *p // want `assignment copies lock value`
	return q.name
}

func copyRange(ps []published) int {
	n := 0
	for _, p := range ps { // want `range var p copies lock`
		n += len(p.name)
	}
	return n
}

func pointerUse(ps []*published) int { // pointers share, not copy: fine
	n := 0
	for _, p := range ps {
		n += len(p.name)
	}
	return n
}

func freshConstruct() published {
	return published{name: "x"} // construction, not a copy: fine
}
