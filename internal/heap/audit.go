package heap

import (
	"fmt"
	"sort"
)

// CheckInvariants verifies the heap's internal structural invariants —
// the agreements between the object index, the per-partition resident
// lists, the incremental byte accounting, and the max-free partition
// index — and returns a description of the first violation found, or nil.
//
// The hot paths maintain all of these incrementally (no structure is ever
// rebuilt), so this brute-force reconciliation is the only check that the
// dense bookkeeping has not drifted from the ground truth. It is O(heap)
// and intended for the audit layer (internal/check) and tests, not for
// steady-state runs.
func (h *Heap) CheckInvariants() error {
	partBytes := h.cfg.PartitionBytes()

	// Partition-level accounting and resident-list back-indices.
	var sumUsed int64
	resident := 0
	addrScratch := make([]*Object, 0, 64)
	for _, p := range h.parts {
		if p.used < 0 || p.used > partBytes {
			return fmt.Errorf("heap: partition %d used %d outside [0,%d]", p.ID, p.used, partBytes)
		}
		sumUsed += p.used
		var sumSizes int64
		addrScratch = addrScratch[:0]
		for slot, oid := range p.objects {
			obj := h.Get(oid)
			if obj == nil {
				return fmt.Errorf("heap: partition %d lists non-resident object %d", p.ID, oid)
			}
			if obj.OID != oid {
				return fmt.Errorf("heap: object index slot %d holds OID %d", oid, obj.OID)
			}
			if obj.Partition != p.ID {
				return fmt.Errorf("heap: object %d listed in partition %d but records partition %d", oid, p.ID, obj.Partition)
			}
			if int(obj.resIdx) != slot {
				return fmt.Errorf("heap: object %d resident back-index %d, actual slot %d in partition %d", oid, obj.resIdx, slot, p.ID)
			}
			if obj.Addr < p.Base || obj.End() > p.Base+Addr(p.used) {
				return fmt.Errorf("heap: object %d spans [%d,%d) outside partition %d's allocated range [%d,%d)",
					oid, obj.Addr, obj.End(), p.ID, p.Base, p.Base+Addr(p.used))
			}
			sumSizes += obj.Size
			addrScratch = append(addrScratch, obj)
			resident++
		}
		if sumSizes > p.used {
			return fmt.Errorf("heap: partition %d resident sizes %d exceed used %d", p.ID, sumSizes, p.used)
		}
		// Bump allocation never overlaps objects; Discard leaves holes but
		// cannot create overlaps either.
		sort.Slice(addrScratch, func(i, j int) bool { return addrScratch[i].Addr < addrScratch[j].Addr })
		for i := 1; i < len(addrScratch); i++ {
			if addrScratch[i-1].End() > addrScratch[i].Addr {
				return fmt.Errorf("heap: objects %d and %d overlap in partition %d",
					addrScratch[i-1].OID, addrScratch[i].OID, p.ID)
			}
		}
	}
	if sumUsed != h.occupied {
		return fmt.Errorf("heap: occupied counter %d, partitions sum to %d", h.occupied, sumUsed)
	}
	if h.occupied > h.totalAllocated {
		return fmt.Errorf("heap: occupied %d exceeds total allocated %d", h.occupied, h.totalAllocated)
	}

	// Object-index census: every live index entry must be resident in
	// exactly one partition (counted once above) and lie below the OID
	// bound, and the root flags must agree with the root list.
	tableCount, rootFlags := 0, 0
	for pi, page := range h.index {
		if page == nil {
			continue
		}
		for i, obj := range page {
			if obj == nil {
				continue
			}
			oid := OID(pi)<<indexPageBits | OID(i)
			tableCount++
			if obj.OID != oid {
				return fmt.Errorf("heap: object index slot %d holds OID %d", oid, obj.OID)
			}
			if oid >= h.oidBound {
				return fmt.Errorf("heap: object %d at or past the OID bound %d", oid, h.oidBound)
			}
			if obj.root {
				rootFlags++
			}
		}
	}
	if tableCount != h.numObjects {
		return fmt.Errorf("heap: object count %d, table holds %d", h.numObjects, tableCount)
	}
	if tableCount != resident {
		return fmt.Errorf("heap: table holds %d objects but partitions list %d", tableCount, resident)
	}
	for _, oid := range h.rootList {
		obj := h.Get(oid)
		if obj == nil {
			return fmt.Errorf("heap: root list names non-resident object %d", oid)
		}
		if !obj.root {
			return fmt.Errorf("heap: root list names object %d whose root flag is clear", oid)
		}
	}
	if rootFlags != len(h.rootList) {
		return fmt.Errorf("heap: %d objects carry the root flag, root list has %d (duplicate or stale entry)",
			rootFlags, len(h.rootList))
	}

	// Reserved empty partition.
	if h.empty != NoPartition {
		if int(h.empty) >= len(h.parts) {
			return fmt.Errorf("heap: empty partition %d out of range", h.empty)
		}
		if used := h.parts[h.empty].used; used != 0 {
			return fmt.Errorf("heap: reserved empty partition %d has %d used bytes", h.empty, used)
		}
	}

	// Max-free index: byFree/freePos must be a bijection over exactly the
	// allocatable partitions (everything but the reserved empty one), and
	// the array must satisfy the binary-heap order freeBefore imposes.
	if len(h.freePos) != len(h.parts) {
		return fmt.Errorf("heap: freePos covers %d partitions, heap has %d", len(h.freePos), len(h.parts))
	}
	inIndex := 0
	for pid := range h.parts {
		p := PartitionID(pid)
		pos := int(h.freePos[p])
		if p == h.empty {
			if pos >= 0 {
				return fmt.Errorf("heap: reserved empty partition %d present in the free index", p)
			}
			continue
		}
		if pos < 0 || pos >= len(h.byFree) {
			return fmt.Errorf("heap: partition %d missing from the free index (pos %d)", p, pos)
		}
		if h.byFree[pos] != p {
			return fmt.Errorf("heap: free index slot %d holds partition %d, freePos says %d", pos, h.byFree[pos], p)
		}
		inIndex++
	}
	if inIndex != len(h.byFree) {
		return fmt.Errorf("heap: free index has %d entries, %d partitions are allocatable", len(h.byFree), inIndex)
	}
	for i := 1; i < len(h.byFree); i++ {
		parent := (i - 1) / 2
		if h.freeBefore(h.byFree[i], h.byFree[parent]) {
			return fmt.Errorf("heap: free index heap order violated at slot %d (partition %d outranks parent %d)",
				i, h.byFree[i], h.byFree[parent])
		}
	}
	return nil
}
