package heap

// Oracle computes exact reachability over the whole heap. The simulator
// uses it for the MostGarbage policy ("provided by our simulation system",
// Section 3.1) and for the metrics the paper reports: live bytes, garbage
// per partition, and unreclaimed garbage over time.
//
// Visited marks are the heap's (see Heap.BeginMarks): an epoch stamp in
// each Object, so a reachability pass performs no hashing, no up-front
// clearing and no per-OID scratch — bumping the epoch invalidates every
// previous mark.
//
// An Oracle holds reusable scratch space; it is not safe for concurrent
// use, and each call invalidates the result of the previous one — and,
// because the marks live in the heap, of every other oracle over the
// same heap.
type Oracle struct {
	h     *Heap
	list  []*Object // live objects in discovery order, reused across passes
	queue []*Object // marked objects whose fields are still to scan

	garbage []int64 // GarbageByPartition scratch
}

// NewOracle returns an oracle over h.
func NewOracle(h *Heap) *Oracle {
	return &Oracle{h: h}
}

// LiveSet is the result of one reachability pass: a read-only view into the
// oracle's scratch space and the heap's marks, invalidated by the next
// oracle call over the same heap and by any change to the heap.
type LiveSet struct {
	h     *Heap
	epoch uint16
	objs  []*Object
}

// Contains reports whether oid was reachable when the set was computed.
func (s LiveSet) Contains(oid OID) bool {
	obj := s.h.Get(oid)
	return obj != nil && obj.mark == s.epoch
}

// Len reports the number of reachable objects.
func (s LiveSet) Len() int { return len(s.objs) }

// ForEach calls fn for every reachable OID, in the deterministic order the
// marking pass discovered them (roots first, then breadth of the forest).
func (s LiveSet) ForEach(fn func(OID)) {
	for _, obj := range s.objs {
		fn(obj.OID)
	}
}

// Live returns the set of OIDs reachable from the root set. The returned
// view is scratch space owned by the oracle and is invalidated by the next
// oracle call. With warm scratch buffers a traversal must not allocate
// (pinned by TestOracleLiveAmortizedZeroAllocs).
//
//odbgc:hotpath
func (o *Oracle) Live() LiveSet {
	h := o.h
	h.BeginMarks()
	o.list = o.list[:0]
	o.queue = o.queue[:0]
	for _, r := range h.rootList {
		if obj := h.Get(r); h.Mark(obj) {
			o.list = append(o.list, obj)   //odbgc:alloc-ok amortized scratch growth
			o.queue = append(o.queue, obj) //odbgc:alloc-ok amortized scratch growth
		}
	}
	for len(o.queue) > 0 {
		obj := o.queue[len(o.queue)-1]
		o.queue = o.queue[:len(o.queue)-1]
		for _, f := range obj.Fields {
			if f == NilOID {
				continue
			}
			child := h.Get(f)
			if child == nil || !h.Mark(child) {
				continue
			}
			o.list = append(o.list, child)   //odbgc:alloc-ok amortized scratch growth
			o.queue = append(o.queue, child) //odbgc:alloc-ok amortized scratch growth
		}
	}
	return LiveSet{h: h, epoch: h.markEpoch, objs: o.list}
}

// LiveBytes returns the total size of all reachable objects.
func (o *Oracle) LiveBytes() int64 {
	o.Live()
	var n int64
	for _, obj := range o.list {
		n += obj.Size
	}
	return n
}

// GarbageByPartition returns, for each partition, the bytes occupied by
// unreachable objects. Index is the PartitionID. The returned slice is
// scratch space owned by the oracle and is invalidated by the next call.
func (o *Oracle) GarbageByPartition() []int64 {
	o.Live()
	if n := o.h.NumPartitions(); cap(o.garbage) < n {
		o.garbage = make([]int64, n)
	} else {
		o.garbage = o.garbage[:n]
	}
	for id := range o.garbage {
		o.garbage[id] = o.h.Partition(PartitionID(id)).Used()
	}
	for _, obj := range o.list {
		o.garbage[obj.Partition] -= obj.Size
	}
	return o.garbage
}

// UnreclaimedGarbageBytes returns the bytes occupied by unreachable objects
// across the whole heap (Figure 4's y-axis).
func (o *Oracle) UnreclaimedGarbageBytes() int64 {
	return o.h.OccupiedBytes() - o.LiveBytes()
}

// MostGarbagePartition returns the partition holding the most garbage
// bytes, excluding the reserved empty partition, along with that amount.
// Ties break toward the lowest partition ID so results are deterministic.
func (o *Oracle) MostGarbagePartition() (PartitionID, int64) {
	garbage := o.GarbageByPartition()
	best, bestAmt := NoPartition, int64(-1)
	for id, amt := range garbage {
		if PartitionID(id) == o.h.EmptyPartition() {
			continue
		}
		if amt > bestAmt {
			best, bestAmt = PartitionID(id), amt
		}
	}
	return best, bestAmt
}
