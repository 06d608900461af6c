package heap

// Visited marks serve the reachability oracle and the collector's
// evacuation. Every Object carries a 2-byte stamp and the Heap a current
// epoch: an object is marked when its stamp equals the epoch, so
// BeginMarks unmarks every object in O(1) by bumping the epoch, and the
// marks cost nothing per OID ever issued. The oracle and the collector
// share the one set, because their passes never interleave; each pass
// invalidates the marks of the one before, whoever made them. Keeping the
// epoch on the Heap rather than on the traversal is what makes that safe:
// two oracles over one heap each bump the same counter, so neither
// mistakes the other's stamps for its own. Zero is never a current epoch,
// so fresh and recycled Object records start unmarked.

// BeginMarks starts a marking pass: afterwards no object is marked. Once
// every 65,535 passes the epoch wraps, and BeginMarks clears every
// resident object's stamp by walking the partitions' resident lists.
func (h *Heap) BeginMarks() {
	h.markEpoch++
	if h.markEpoch != 0 {
		return
	}
	for _, p := range h.parts {
		for _, oid := range p.objects {
			h.Get(oid).mark = 0
		}
	}
	h.markEpoch = 1
}

// Mark marks obj, reporting whether it was unmarked before.
//
//odbgc:hotpath
func (h *Heap) Mark(obj *Object) bool {
	if obj.mark == h.markEpoch {
		return false
	}
	obj.mark = h.markEpoch
	return true
}
