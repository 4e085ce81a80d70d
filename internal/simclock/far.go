package simclock

// The far tier holds the entries due at or after the engine's nearEnd,
// unsorted, in time buckets: a calendar queue (Brown, CACM 1988) whose
// buckets are loaded into the near heap one at a time. An entry cancelled
// while it waits here is dropped when its bucket loads, without ever
// being sifted through the heap.

// bucketShift sets the bucket width: 2^42 ns, about 73 minutes of
// simulated time.
const bucketShift = 42

// ringSlots is how many consecutive buckets the ring covers (about 26
// days); entries due later wait in the overflow list until their bucket
// enters the ring's window.
const (
	ringSlots = 512
	ringMask  = ringSlots - 1
)

// bucketOf returns the bucket an instant falls in.
func bucketOf(ns int64) int64 { return ns >> bucketShift }

// farNode is one far entry, linked into a bucket's list. Nodes live in
// one slice and are recycled through a free list, so a warm push
// allocates nothing; index 0 is the nil link. A list's order does not
// matter: a loaded bucket is heapified by (time, seq).
type farNode struct {
	ev     *Event
	seq    uint64
	next   int32
	bucket int32
}

// farTier is the ring of bucket lists plus the overflow list. With nb
// the first bucket not yet loaded into the heap, ring slot b&ringMask
// holds exactly the entries of bucket b for b in [nb, nb+ringSlots), and
// every overflow entry lies beyond that window.
type farTier struct {
	nodes []farNode
	free  int32
	// ring and overflow hold the heads of their lists.
	ring [ringSlots]int32
	// ringCount counts the entries in ring lists, count those in the
	// ring and the overflow.
	ringCount, count int
	overflow         int32
	// overflowMin is the smallest bucket in the overflow list; it is
	// meaningful only while the list is non-empty.
	overflowMin int64
}

func newFarTier() *farTier {
	return &farTier{nodes: make([]farNode, 1, 16)}
}

// reset empties the tier, keeping its node storage. The events of live
// entries are marked cancelled: they never fire, and their owners may
// arm them again.
func (f *farTier) reset() {
	for _, n := range f.nodes {
		if n.ev != nil && (heapEntry{seq: n.seq, ev: n.ev}).live() {
			n.ev.state = eventCancelled
		}
	}
	clear(f.nodes)
	*f = farTier{nodes: f.nodes[:1]}
}

// link pushes node i onto the list headed by *head.
func (f *farTier) link(head *int32, i int32) {
	f.nodes[i].next = *head
	*head = i
}

// add files an entry; nb is the first bucket not yet loaded, and the
// entry's bucket is at or after it.
func (f *farTier) add(ent heapEntry, nb int64) {
	b := bucketOf(ent.atNs)
	n := farNode{ev: ent.ev, seq: ent.seq, bucket: int32(b)}
	i := f.free
	if i != 0 {
		f.free = f.nodes[i].next
		f.nodes[i] = n
	} else {
		i = int32(len(f.nodes))
		f.nodes = append(f.nodes, n)
	}
	f.count++
	if b < nb+ringSlots {
		f.link(&f.ring[b&ringMask], i)
		f.ringCount++
		return
	}
	if f.overflow == 0 || b < f.overflowMin {
		f.overflowMin = b
	}
	f.link(&f.overflow, i)
}

// release returns a node to the free list.
func (f *farTier) release(i int32) {
	f.nodes[i] = farNode{next: f.free}
	f.free = i
}

// nextBucket returns the first bucket at or after nb that holds entries.
// The overflow entries of the window starting at nb join the ring first,
// so the bucket found is complete: it lies inside that window. The tier
// must not be empty.
func (f *farTier) nextBucket(nb int64) int64 {
	if f.ringCount == 0 {
		nb = f.overflowMin
	}
	f.sweep(nb)
	for f.ring[nb&ringMask] == 0 {
		nb++
	}
	return nb
}

// sweep moves the overflow entries of buckets before nb+ringSlots into
// the ring. Each entry moves once; sweeps run only when the smallest
// overflow bucket enters the window.
func (f *farTier) sweep(nb int64) {
	limit := nb + ringSlots
	if f.overflow == 0 || f.overflowMin >= limit {
		return
	}
	var keep int32
	for i := f.overflow; i != 0; {
		next := f.nodes[i].next
		if b := int64(f.nodes[i].bucket); b < limit {
			f.link(&f.ring[b&ringMask], i)
			f.ringCount++
		} else {
			if keep == 0 || b < f.overflowMin {
				f.overflowMin = b
			}
			f.link(&keep, i)
		}
		i = next
	}
	f.overflow = keep
}

// load empties bucket b's list onto q, dropping dead entries and
// counting them off cancelled. The caller heapifies q.
func (f *farTier) load(b int64, q eventQueue, cancelled int) (eventQueue, int) {
	head := &f.ring[b&ringMask]
	for i := *head; i != 0; {
		n := f.nodes[i]
		if ent := (heapEntry{seq: n.seq, ev: n.ev}); ent.live() {
			ent.atNs = n.ev.at.UnixNano()
			q = append(q, ent)
		} else {
			cancelled--
		}
		f.release(i)
		f.count--
		f.ringCount--
		i = n.next
	}
	*head = 0
	return q, cancelled
}

// compact drops every dead entry from the ring and the overflow list.
func (f *farTier) compact() {
	f.ringCount = 0
	for s := range f.ring {
		f.ringCount += f.filter(&f.ring[s])
	}
	f.count = f.ringCount + f.filter(&f.overflow)
	for i := f.overflow; i != 0; i = f.nodes[i].next {
		if b := int64(f.nodes[i].bucket); i == f.overflow || b < f.overflowMin {
			f.overflowMin = b
		}
	}
}

// filter unlinks and releases the dead entries of one list and reports
// how many it keeps.
func (f *farTier) filter(head *int32) int {
	var keep int32
	kept := 0
	for i := *head; i != 0; {
		n := f.nodes[i]
		if (heapEntry{seq: n.seq, ev: n.ev}).live() {
			f.link(&keep, i)
			kept++
		} else {
			f.release(i)
		}
		i = n.next
	}
	*head = keep
	return kept
}
