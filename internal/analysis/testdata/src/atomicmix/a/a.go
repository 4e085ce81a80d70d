// Fixture: atomicmix flags plain access of variables that are accessed
// with sync/atomic elsewhere, and by-value copies of structs holding
// such fields. Copies of typed atomics are go vet's (see vetcopy/a).
package a

import "sync/atomic"

type counter struct {
	hits int64 // accessed via atomic.AddInt64 below
	cold int64 // never touched atomically
}

func (c *counter) bump() {
	atomic.AddInt64(&c.hits, 1) // sanctioned
}

func (c *counter) read() int64 {
	return atomic.LoadInt64(&c.hits) // sanctioned
}

func (c *counter) raceyRead() int64 {
	return c.hits // want `plain access of hits, which is accessed with sync/atomic`
}

func (c *counter) raceyWrite() {
	c.hits = 0 // want `plain access of hits`
}

func (c *counter) fine() int64 {
	return c.cold // never atomic: fine
}

func construct() *counter {
	return &counter{hits: 0} // composite-literal key is construction: fine
}

var global int64

func bumpGlobal() {
	atomic.AddInt64(&global, 1)
}

func readGlobal() int64 {
	return global // want `plain access of global`
}

func suppressedRead(c *counter) int64 {
	//spotverse:allow atomicmix fixture proves atomicmix suppression
	return c.hits
}

// rawHolder's field is reached through raw sync/atomic calls, so a copy
// tears it; go vet's copylocks cannot see this (no noCopy marker).
type rawHolder struct {
	n    int64
	name string
}

func bumpRaw(h *rawHolder) {
	atomic.AddInt64(&h.n, 1)
}

func copyRaw(h *rawHolder) rawHolder {
	v := *h // want `assignment copies rawHolder contains field n, which is accessed with sync/atomic`
	return v
}

func copyRawParam(h rawHolder) string { // want `parameter of copyRawParam copies rawHolder contains field n`
	return h.name
}

func copyRawRange(hs []rawHolder) int {
	n := 0
	for _, h := range hs { // want `range variable copies rawHolder contains field n, which is accessed with sync/atomic per iteration`
		n += len(h.name)
	}
	return n
}

func rawPointerUse(hs []*rawHolder) int { // pointers share, not copy: fine
	n := 0
	for _, h := range hs {
		n += len(h.name)
	}
	return n
}

func rawConstruct() rawHolder {
	return rawHolder{name: "x"} // construction, not a copy: fine
}
