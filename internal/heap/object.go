// Package heap implements the simulated object database substrate used by
// the partitioned garbage collector: a physically partitioned address space
// of variable-size objects with pointer fields, bump allocation with
// placement near the parent object, on-demand database growth, and a
// reachability oracle.
//
// The heap is the "logical and physical structure of the database
// implementation being measured" from Section 4.2 of Cook, Wolf & Zorn.
// Pointers are object identifiers (OIDs) resolved through an object index,
// so relocating an object during collection does not rewrite the pages of
// objects that point to it; the paper's cost model (counted page I/Os) is
// applied by the buffer manager in package pagebuf.
package heap

// OID is an object identifier. OIDs are stable across relocation; the zero
// OID is the nil pointer.
type OID uint64

// NilOID is the null pointer value stored in unset pointer fields.
const NilOID OID = 0

// PartitionID identifies one physical partition of the database address
// space. Partitions are numbered densely from zero in creation order.
type PartitionID int

// NoPartition is returned when an object or address belongs to no partition.
const NoPartition PartitionID = -1

// Addr is a byte offset into the global database address space. Partition p
// owns the half-open range [p*partitionBytes, (p+1)*partitionBytes).
type Addr int64

// PageID identifies one fixed-size page of the database address space.
type PageID int64

// MaxWeight is the largest root-distance weight representable in the four
// bits the WeightedPointer policy maintains per object (Section 3.1).
const MaxWeight = 16

// Object is one database object: a contiguous run of Size bytes at Addr
// holding len(Fields) pointer slots plus uninterpreted data.
type Object struct {
	// OID is the object's stable identity.
	OID OID
	// Size is the object's size in bytes, fixed at allocation.
	Size int64
	// Partition is the partition currently holding the object.
	Partition PartitionID
	// Addr is the object's current global byte offset. It changes when the
	// collector relocates the object.
	Addr Addr
	// Fields holds the object's pointer slots; NilOID marks an empty slot.
	Fields []OID
	// Weight is the object's approximate distance from the root set plus
	// one, in [1, MaxWeight]. It is maintained by the WeightedPointer
	// policy's write barrier and is meaningless under other policies.
	Weight uint8

	// root marks membership in the database root set (see Heap.AddRoot).
	root bool
	// mark is the object's visited stamp (see Heap.BeginMarks). At 2
	// bytes it fits the padding beside root, keeping the record at 64
	// bytes: one cache line.
	mark uint16
	// resIdx is the object's slot in its partition's resident list, so
	// removal is a swap-remove instead of a map delete.
	resIdx int32
}

// End returns the address one past the object's last byte.
func (o *Object) End() Addr { return o.Addr + Addr(o.Size) }

// PointerCount reports the number of non-nil pointer fields.
func (o *Object) PointerCount() int {
	n := 0
	for _, f := range o.Fields {
		if f != NilOID {
			n++
		}
	}
	return n
}
