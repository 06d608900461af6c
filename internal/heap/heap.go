package heap

import (
	"errors"
	"fmt"
)

// Config fixes the geometry of the simulated database.
type Config struct {
	// PageSize is the size of one page in bytes (the paper uses 8 KB).
	PageSize int64
	// PartitionPages is the number of pages per partition (24–100 in the
	// paper, depending on database size).
	PartitionPages int
	// ReserveEmpty keeps one partition empty at all times so a copying
	// collection always has a target. It is false only under the
	// NoCollection policy, which never collects.
	ReserveEmpty bool
}

// DefaultConfig returns the geometry used for the paper's Tables 2–5:
// 48 pages of 8 KB per partition, with a reserved empty partition.
func DefaultConfig() Config {
	return Config{PageSize: 8192, PartitionPages: 48, ReserveEmpty: true}
}

// PartitionBytes returns the size of one partition in bytes.
func (c Config) PartitionBytes() int64 { return c.PageSize * int64(c.PartitionPages) }

func (c Config) validate() error {
	if c.PageSize <= 0 {
		return fmt.Errorf("heap: page size %d must be positive", c.PageSize)
	}
	if c.PartitionPages <= 0 {
		return fmt.Errorf("heap: partition pages %d must be positive", c.PartitionPages)
	}
	return nil
}

// Partition is one contiguous, fixed-size region of the database address
// space. Objects are bump-allocated within it; space is reclaimed only by
// evacuating the whole partition (copying collection) and resetting it.
type Partition struct {
	// ID is the partition's index in the heap.
	ID PartitionID
	// Base is the partition's first global byte address.
	Base Addr

	used int64 // bump offset: bytes allocated since the last reset
	// objects lists the resident OIDs in arbitrary order; each resident
	// Object records its slot here (resIdx) so removal is a swap with the
	// last element — no hashing on the allocation or collection paths.
	objects []OID
}

// Used reports the bytes occupied in the partition (live objects plus
// unreclaimed garbage; there are no holes because allocation only bumps).
func (p *Partition) Used() int64 { return p.used }

// Len reports the number of objects resident in the partition.
func (p *Partition) Len() int { return len(p.objects) }

// Objects calls fn for every object OID resident in the partition.
// Iteration order is unspecified; fn must not add or remove objects in p.
func (p *Partition) Objects(fn func(OID)) {
	for _, oid := range p.objects {
		fn(oid)
	}
}

// maxDenseOID bounds the OIDs the heap accepts: 2³², the width of the
// trace's operand columns. The workload generators number OIDs densely
// from 1, so an OID past the bound indicates a corrupt or hostile trace
// rather than a real database. It caps the object index's directory at
// 65,536 entries.
const maxDenseOID = OID(1) << 32

// The object index is two-level: a directory of fixed pages, each
// resolving indexPageLen consecutive OIDs. A page is allocated the first
// time an OID lands in it and is never copied or freed, so the index
// costs 8 bytes per OID issued (rounded up to a page) and growing it
// moves nothing.
const (
	indexPageBits = 16
	indexPageLen  = 1 << indexPageBits
)

// indexPage resolves indexPageLen consecutive OIDs; nil entries are free.
type indexPage [indexPageLen]*Object

// Heap is the simulated object database: a growable sequence of partitions,
// an object index, and a root set.
//
// The hot paths are map-free: the object index is a paged table indexed
// by OID, partition residency is a swap-remove slice with per-object
// back-indices, and allocation placement consults an incrementally
// maintained max-free priority index instead of scanning every partition.
// The object index is the only structure whose size follows the OIDs ever
// issued; everything else, including the visited marks of the oracle and
// the collector (see BeginMarks), is held per resident object.
type Heap struct {
	cfg   Config
	parts []*Partition

	// index resolves OIDs to objects through pages of indexPageLen
	// entries; nil directory entries are pages no OID has landed in yet,
	// and nil page entries are free slots (never allocated, or
	// discarded). oidBound is one past the largest OID ever allocated;
	// numObjects counts the non-nil entries.
	index      []*indexPage
	oidBound   OID
	numObjects int
	// pool recycles Object records discarded by the collector so
	// steady-state allocation does not touch the Go heap.
	pool []*Object

	// rootList is the database root set in insertion order; each root
	// Object also carries a root flag for O(1) membership tests.
	rootList []OID

	// byFree is a binary max-heap of allocatable partition IDs ordered by
	// free bytes (ties toward the lower ID); freePos[p] is p's slot in
	// byFree, or -1 while p is excluded (the reserved empty partition).
	byFree  []PartitionID
	freePos []int32

	// empty is the reserved empty partition, or NoPartition when
	// cfg.ReserveEmpty is false.
	empty PartitionID

	// markEpoch is the current visited-mark epoch (see BeginMarks).
	markEpoch uint16

	occupied       int64 // current bytes occupied across all partitions
	totalAllocated int64 // cumulative bytes ever allocated
	totalObjects   int64 // cumulative objects ever allocated
}

// ErrObjectTooLarge is returned when an object cannot fit in a partition.
var ErrObjectTooLarge = errors.New("heap: object larger than a partition")

// ErrSparseOID is returned when an OID is at or past 2³², the largest OID
// a trace can carry; OIDs must be allocated densely from 1.
var ErrSparseOID = errors.New("heap: OID exceeds dense index bound")

// New returns an empty heap with one allocatable partition, plus the
// reserved empty partition if the configuration asks for one.
func New(cfg Config) (*Heap, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	h := &Heap{
		cfg:   cfg,
		empty: NoPartition,
	}
	h.addPartition()
	if cfg.ReserveEmpty {
		h.empty = h.addPartition().ID
		h.freeRemove(h.empty)
	}
	return h, nil
}

// Config returns the heap's geometry.
func (h *Heap) Config() Config { return h.cfg }

// addPartition appends a fresh partition, indexes it as allocatable, and
// returns it.
func (h *Heap) addPartition() *Partition {
	id := PartitionID(len(h.parts))
	p := &Partition{
		ID:   id,
		Base: Addr(int64(id) * h.cfg.PartitionBytes()),
	}
	h.parts = append(h.parts, p) //odbgc:alloc-ok amortized partition-table growth
	h.freePos = append(h.freePos, -1)
	h.freeInsert(id)
	return p
}

// NumPartitions reports the current number of partitions, including the
// reserved empty partition if any.
func (h *Heap) NumPartitions() int { return len(h.parts) }

// Partition returns the partition with the given ID. It panics on an
// out-of-range ID, which always indicates a simulator bug.
func (h *Heap) Partition(id PartitionID) *Partition {
	return h.parts[id]
}

// EmptyPartition returns the reserved empty partition, or NoPartition when
// the heap runs without one.
func (h *Heap) EmptyPartition() PartitionID { return h.empty }

// SetEmptyPartition designates p as the reserved empty partition. The
// collector calls this after evacuating p. It panics if p is not empty.
func (h *Heap) SetEmptyPartition(p PartitionID) {
	if h.parts[p].used != 0 {
		panic(fmt.Sprintf("heap: partition %d designated empty but has %d used bytes", p, h.parts[p].used))
	}
	prev := h.empty
	h.empty = p
	h.freeRemove(p)
	if prev != NoPartition {
		h.freeInsert(prev)
	}
}

// Get returns the object with the given OID, or nil if no such object is
// resident in the heap.
func (h *Heap) Get(oid OID) *Object {
	pi := oid >> indexPageBits
	if pi >= OID(len(h.index)) {
		return nil
	}
	page := h.index[pi]
	if page == nil {
		return nil
	}
	return page[oid&(indexPageLen-1)]
}

// Contains reports whether oid names a resident object.
func (h *Heap) Contains(oid OID) bool { return h.Get(oid) != nil }

// Len reports the number of resident objects.
func (h *Heap) Len() int { return h.numObjects }

// OIDBound returns one past the largest OID ever allocated: the span of
// OIDs the object index covers, and so, at 8 bytes per OID, what the
// index costs.
func (h *Heap) OIDBound() OID { return h.oidBound }

// TotalAllocatedBytes reports the cumulative bytes ever allocated, including
// bytes since reclaimed. This is the paper's "maximum allocated" axis.
func (h *Heap) TotalAllocatedBytes() int64 { return h.totalAllocated }

// TotalAllocatedObjects reports the cumulative number of objects allocated.
func (h *Heap) TotalAllocatedObjects() int64 { return h.totalObjects }

// OccupiedBytes reports the bytes currently occupied across all partitions:
// live objects plus unreclaimed garbage (the paper's "database size"). It is
// maintained incrementally and costs O(1).
func (h *Heap) OccupiedBytes() int64 { return h.occupied }

// FootprintBytes reports the total address space held by the database:
// partition count times partition size. This includes external
// fragmentation, matching Table 3's "maximum storage required".
func (h *Heap) FootprintBytes() int64 {
	return int64(len(h.parts)) * h.cfg.PartitionBytes()
}

// AddRoot marks oid as a member of the database root set. Root objects and
// everything reachable from them are live.
func (h *Heap) AddRoot(oid OID) {
	obj := h.Get(oid)
	if obj == nil {
		panic(fmt.Sprintf("heap: AddRoot(%d): no such object", oid))
	}
	if obj.root {
		return
	}
	obj.root = true
	h.rootList = append(h.rootList, oid)
}

// IsRoot reports whether oid is in the root set.
func (h *Heap) IsRoot(oid OID) bool {
	obj := h.Get(oid)
	return obj != nil && obj.root
}

// Roots calls fn for every root OID, in the order the roots were added.
func (h *Heap) Roots(fn func(OID)) {
	for _, oid := range h.rootList {
		fn(oid)
	}
}

// NumRoots reports the size of the root set.
func (h *Heap) NumRoots() int { return len(h.rootList) }

// Grew is the result of an allocation, reporting whether the database had
// to grow to satisfy it.
type Grew struct {
	// Added is the number of partitions added (0 or 1).
	Added int
}

// Alloc allocates a new object of the given size with nfields pointer
// slots, placing it near parent when possible: in the parent's partition if
// the object fits there, otherwise in the resident partition with the most
// free space, otherwise in a freshly added partition (the paper's "when to
// grow" policy). A NilOID parent requests no placement affinity.
//
// Alloc returns ErrObjectTooLarge if size exceeds the partition size, and
// panics if oid is already resident (trace corruption). In steady state —
// pool warm, index page present, resident slices at capacity — it must
// not allocate (pinned by TestAllocSteadyStateZeroAllocs).
//
//odbgc:hotpath
func (h *Heap) Alloc(oid OID, size int64, nfields int, parent OID) (*Object, Grew, error) {
	if size <= 0 {
		return nil, Grew{}, fmt.Errorf("heap: Alloc(%d): size %d must be positive", oid, size) //odbgc:alloc-ok cold error path
	}
	if size > h.cfg.PartitionBytes() {
		return nil, Grew{}, fmt.Errorf("%w: %d > %d", ErrObjectTooLarge, size, h.cfg.PartitionBytes()) //odbgc:alloc-ok cold error path
	}
	if oid >= maxDenseOID {
		return nil, Grew{}, fmt.Errorf("%w: %d", ErrSparseOID, oid) //odbgc:alloc-ok cold error path
	}
	if h.Contains(oid) {
		panic(fmt.Sprintf("heap: Alloc(%d): OID already resident", oid)) //odbgc:alloc-ok cold panic path
	}

	var grew Grew
	target := h.placeFor(size, parent)
	if target == nil {
		target = h.addPartition()
		grew.Added = 1
	}

	obj := h.newObject(oid, size, nfields)
	obj.Partition = target.ID
	obj.Addr = target.Base + Addr(target.used)
	target.used += size
	h.freeFix(target.ID)
	h.residentAdd(target, obj)
	h.setIndex(oid, obj)
	if oid >= h.oidBound {
		h.oidBound = oid + 1
	}
	h.numObjects++
	h.occupied += size
	h.totalAllocated += size
	h.totalObjects++
	return obj, grew, nil
}

// newObject takes an Object record from the recycle pool (or the Go heap)
// and initializes it.
//
//odbgc:hotpath
func (h *Heap) newObject(oid OID, size int64, nfields int) *Object {
	var obj *Object
	if n := len(h.pool); n > 0 {
		obj = h.pool[n-1]
		h.pool = h.pool[:n-1]
	} else {
		obj = new(Object) //odbgc:alloc-ok pool miss; recycled thereafter
	}
	if cap(obj.Fields) >= nfields {
		obj.Fields = obj.Fields[:nfields]
		clear(obj.Fields)
	} else {
		obj.Fields = make([]OID, nfields) //odbgc:alloc-ok field slice grows only past the recycled capacity
	}
	obj.OID = oid
	obj.Size = size
	obj.Weight = MaxWeight
	obj.root = false
	obj.mark = 0
	return obj
}

// setIndex points oid's object-index entry at obj, allocating the
// entry's page the first time an OID lands in it.
//
//odbgc:hotpath
func (h *Heap) setIndex(oid OID, obj *Object) {
	pi := int(oid >> indexPageBits)
	if pi >= len(h.index) {
		h.index = append(h.index, make([]*indexPage, pi+1-len(h.index))...) //odbgc:alloc-ok directory growth, at most 65,536 entries
	}
	page := h.index[pi]
	if page == nil {
		page = new(indexPage) //odbgc:alloc-ok one page per 65,536 OIDs, never copied
		h.index[pi] = page
	}
	page[oid&(indexPageLen-1)] = obj
}

// residentAdd appends obj to p's resident set, recording its slot.
//
//odbgc:hotpath
func (h *Heap) residentAdd(p *Partition, obj *Object) {
	obj.resIdx = int32(len(p.objects))
	p.objects = append(p.objects, obj.OID) //odbgc:alloc-ok amortized slice growth
}

// residentRemove removes obj from p's resident set by swapping the last
// element into its slot.
//
//odbgc:hotpath
func (h *Heap) residentRemove(p *Partition, obj *Object) {
	i := obj.resIdx
	last := int32(len(p.objects) - 1)
	moved := p.objects[last]
	p.objects[i] = moved
	h.Get(moved).resIdx = i
	p.objects = p.objects[:last]
	obj.resIdx = -1
}

// placeFor chooses the partition for a new object of the given size, or nil
// if no resident partition has room: the parent's partition when the object
// fits there, otherwise the partition with the most free space (ties toward
// the lowest ID). The reserved empty partition is never an allocation
// target.
//
//odbgc:hotpath
func (h *Heap) placeFor(size int64, parent OID) *Partition {
	partBytes := h.cfg.PartitionBytes()
	if parent != NilOID {
		if po := h.Get(parent); po != nil && po.Partition != h.empty {
			p := h.parts[po.Partition]
			if partBytes-p.used >= size {
				return p
			}
		}
	}
	if len(h.byFree) == 0 {
		return nil
	}
	best := h.parts[h.byFree[0]]
	if partBytes-best.used >= size {
		return best
	}
	return nil
}

// WriteField stores target into field f of src and returns the previous
// value. It is the raw heap mutation; the write barrier in package gc wraps
// it with remembered-set and policy bookkeeping. It must not allocate
// (pinned by TestWriteFieldZeroAllocs).
//
//odbgc:hotpath
func (h *Heap) WriteField(src OID, f int, target OID) OID {
	obj := h.Get(src)
	if obj == nil {
		panic(fmt.Sprintf("heap: WriteField(%d): no such object", src)) //odbgc:alloc-ok cold panic path
	}
	if f < 0 || f >= len(obj.Fields) {
		panic(fmt.Sprintf("heap: WriteField(%d): field %d out of range [0,%d)", src, f, len(obj.Fields))) //odbgc:alloc-ok cold panic path
	}
	old := obj.Fields[f]
	obj.Fields[f] = target
	return old
}

// Move relocates a resident object into partition dst by bump allocation,
// updating the object's partition and address. The collector uses Move to
// evacuate live objects into the empty partition. It panics if dst lacks
// room, which would mean the collector copied more than one partition's
// worth of data into one partition.
func (h *Heap) Move(oid OID, dst PartitionID) {
	obj := h.Get(oid)
	if obj == nil {
		panic(fmt.Sprintf("heap: Move(%d): no such object", oid))
	}
	to := h.parts[dst]
	if h.cfg.PartitionBytes()-to.used < obj.Size {
		panic(fmt.Sprintf("heap: Move(%d): partition %d has %d free, need %d",
			oid, dst, h.cfg.PartitionBytes()-to.used, obj.Size))
	}
	from := h.parts[obj.Partition]
	h.residentRemove(from, obj)
	// The source partition's bump offset is not decremented: evacuation
	// frees space only when the whole partition is reset afterwards.
	obj.Partition = dst
	obj.Addr = to.Base + Addr(to.used)
	to.used += obj.Size
	h.occupied += obj.Size
	h.freeFix(dst)
	h.residentAdd(to, obj)
}

// Discard removes a dead object from the heap and recycles its record.
// Like Move, it does not give space back to the source partition;
// ResetPartition does. The *Object is invalidated: the next Alloc may
// reuse it.
//
//odbgc:hotpath
func (h *Heap) Discard(oid OID) {
	obj := h.Get(oid)
	if obj == nil {
		panic(fmt.Sprintf("heap: Discard(%d): no such object", oid)) //odbgc:alloc-ok cold panic path
	}
	if obj.root {
		panic(fmt.Sprintf("heap: Discard(%d): object is a root", oid)) //odbgc:alloc-ok cold panic path
	}
	h.residentRemove(h.parts[obj.Partition], obj)
	h.index[oid>>indexPageBits][oid&(indexPageLen-1)] = nil
	h.numObjects--
	h.pool = append(h.pool, obj) //odbgc:alloc-ok amortized pool growth
}

// ResetPartition marks a fully evacuated partition as empty again. It
// panics if any object is still resident there.
func (h *Heap) ResetPartition(id PartitionID) {
	p := h.parts[id]
	if len(p.objects) != 0 {
		panic(fmt.Sprintf("heap: ResetPartition(%d): %d objects still resident", id, len(p.objects)))
	}
	h.occupied -= p.used
	p.used = 0
	h.freeFix(id)
}

// PageRange returns the first and last page touched by the byte range
// [addr, addr+size).
func (h *Heap) PageRange(addr Addr, size int64) (first, last PageID) {
	first = PageID(int64(addr) / h.cfg.PageSize)
	last = PageID((int64(addr) + size - 1) / h.cfg.PageSize)
	return first, last
}

// ObjectPages returns the page range occupied by the object.
func (h *Heap) ObjectPages(obj *Object) (first, last PageID) {
	return h.PageRange(obj.Addr, obj.Size)
}

// PartitionOfAddr returns the partition owning the given address, or
// NoPartition if the address is beyond the current database extent.
func (h *Heap) PartitionOfAddr(addr Addr) PartitionID {
	id := PartitionID(int64(addr) / h.cfg.PartitionBytes())
	if id < 0 || int(id) >= len(h.parts) {
		return NoPartition
	}
	return id
}

// --- max-free partition index ---------------------------------------------
//
// byFree is a binary heap over allocatable partitions: the root is the
// partition with the most free space, ties broken toward the lowest ID —
// exactly the partition the old linear scan chose. Since every partition
// has the same capacity, "most free" is "least used".

// freeBefore reports whether partition a outranks b in the index.
func (h *Heap) freeBefore(a, b PartitionID) bool {
	ua, ub := h.parts[a].used, h.parts[b].used
	return ua < ub || (ua == ub && a < b)
}

func (h *Heap) freeSwap(i, j int) {
	h.byFree[i], h.byFree[j] = h.byFree[j], h.byFree[i]
	h.freePos[h.byFree[i]] = int32(i)
	h.freePos[h.byFree[j]] = int32(j)
}

func (h *Heap) freeUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.freeBefore(h.byFree[i], h.byFree[parent]) {
			break
		}
		h.freeSwap(i, parent)
		i = parent
	}
}

func (h *Heap) freeDown(i int) {
	n := len(h.byFree)
	for {
		best := i
		if l := 2*i + 1; l < n && h.freeBefore(h.byFree[l], h.byFree[best]) {
			best = l
		}
		if r := 2*i + 2; r < n && h.freeBefore(h.byFree[r], h.byFree[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.freeSwap(i, best)
		i = best
	}
}

// freeInsert adds partition p to the index; no-op if already present.
func (h *Heap) freeInsert(p PartitionID) {
	if h.freePos[p] >= 0 {
		return
	}
	h.byFree = append(h.byFree, p) //odbgc:alloc-ok amortized free-index growth
	h.freePos[p] = int32(len(h.byFree) - 1)
	h.freeUp(len(h.byFree) - 1)
}

// freeRemove excludes partition p from the index; no-op if absent.
func (h *Heap) freeRemove(p PartitionID) {
	i := int(h.freePos[p])
	if i < 0 {
		return
	}
	last := len(h.byFree) - 1
	h.freeSwap(i, last)
	h.byFree = h.byFree[:last]
	h.freePos[p] = -1
	if i < last {
		h.freeDown(i)
		h.freeUp(i)
	}
}

// freeFix restores p's heap position after its used count changed; no-op
// when p is excluded (the reserved empty partition).
func (h *Heap) freeFix(p PartitionID) {
	i := int(h.freePos[p])
	if i < 0 {
		return
	}
	h.freeDown(i)
	h.freeUp(int(h.freePos[p]))
}
