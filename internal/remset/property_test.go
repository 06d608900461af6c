package remset

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"odbgc/internal/heap"
)

// TestTableStaysExactUnderRandomWrites drives random pointer-store
// sequences over a multi-partition heap and audits the table against a
// brute-force recomputation after every batch.
func TestTableStaysExactUnderRandomWrites(t *testing.T) {
	f := func(seed int64, nOps uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := heap.New(heap.Config{PageSize: 512, PartitionPages: 2, ReserveEmpty: true})
		if err != nil {
			t.Fatal(err)
		}
		const nObjs = 30
		for i := 1; i <= nObjs; i++ {
			// ~10 objects per 1024-byte partition.
			if _, _, err := h.Alloc(heap.OID(i), int64(80+rng.Intn(40)), 3, heap.NilOID); err != nil {
				t.Fatal(err)
			}
		}
		tab := New(h)
		ops := int(nOps%300) + 1
		for i := 0; i < ops; i++ {
			src := heap.OID(rng.Intn(nObjs) + 1)
			field := rng.Intn(3)
			var target heap.OID
			if rng.Intn(4) != 0 { // 25% nil stores
				target = heap.OID(rng.Intn(nObjs) + 1)
			}
			old := h.WriteField(src, field, target)
			tab.PointerWrite(src, field, old, target)

			if i%37 == 0 {
				if msg := tab.Audit(); msg != "" {
					t.Errorf("after %d ops: %s", i+1, msg)
					return false
				}
			}
		}
		if msg := tab.Audit(); msg != "" {
			t.Error(msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPurgeAndRekeyPreserveExactness simulates the collector's interaction
// with the table: random writes, then an evacuation of one partition, then
// more writes. The evacuation keeps every remembered-set target (they are
// collection roots) and a random share of the other residents, and
// discards the rest with no liveness analysis: survivors' pointers to
// discarded objects dangle, which the table must tolerate as the
// collector's nulling-free discard does.
func TestPurgeAndRekeyPreserveExactness(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := heap.New(heap.Config{PageSize: 512, PartitionPages: 2, ReserveEmpty: true})
		if err != nil {
			t.Fatal(err)
		}
		const nObjs = 24
		for i := 1; i <= nObjs; i++ {
			if _, _, err := h.Alloc(heap.OID(i), 100, 3, heap.NilOID); err != nil {
				t.Fatal(err)
			}
		}
		tab := New(h)
		doWrites := func(n int) {
			for i := 0; i < n; i++ {
				src := heap.OID(rng.Intn(nObjs) + 1)
				field := rng.Intn(3)
				var target heap.OID
				if rng.Intn(3) != 0 {
					target = heap.OID(rng.Intn(nObjs) + 1)
				}
				if !h.Contains(src) || (target != heap.NilOID && !h.Contains(target)) {
					continue
				}
				old := h.WriteField(src, field, target)
				tab.PointerWrite(src, field, old, target)
			}
		}
		doWrites(int(nOps) + 1)

		// Evacuate partition 0 into the empty partition.
		victim := heap.PartitionID(0)
		dest := h.EmptyPartition()
		keep := make(map[heap.OID]bool)
		tab.RootsInto(victim, func(_ Entry, target heap.OID) { keep[target] = true })
		var residents []heap.OID
		h.Partition(victim).Objects(func(oid heap.OID) { residents = append(residents, oid) })
		slices.Sort(residents)
		var dead []heap.OID
		for _, oid := range residents {
			if keep[oid] || rng.Intn(2) == 0 {
				h.Move(oid, dest)
			} else {
				dead = append(dead, oid)
			}
		}
		tab.Evacuated(victim, dest)
		for _, oid := range dead {
			h.Discard(oid)
		}
		h.ResetPartition(victim)
		tab.Rekey(victim, dest)
		h.SetEmptyPartition(victim)

		if msg := tab.Audit(); msg != "" {
			t.Errorf("after evacuation: %s", msg)
			return false
		}
		doWrites(int(nOps) + 1)
		if msg := tab.Audit(); msg != "" {
			t.Errorf("after post-evacuation writes: %s", msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
