package heap

import (
	"errors"
	"runtime"
	"testing"
	"unsafe"
)

func testConfig() Config {
	return Config{PageSize: 8192, PartitionPages: 4, ReserveEmpty: true}
}

func mustNew(t *testing.T, cfg Config) *Heap {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return h
}

func mustAlloc(t *testing.T, h *Heap, oid OID, size int64, nfields int, parent OID) *Object {
	t.Helper()
	obj, _, err := h.Alloc(oid, size, nfields, parent)
	if err != nil {
		t.Fatalf("Alloc(%d): %v", oid, err)
	}
	return obj
}

func TestNewValidatesConfig(t *testing.T) {
	cases := []Config{
		{PageSize: 0, PartitionPages: 4},
		{PageSize: -1, PartitionPages: 4},
		{PageSize: 8192, PartitionPages: 0},
		{PageSize: 8192, PartitionPages: -3},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v): want error, got nil", cfg)
		}
	}
}

func TestNewReservesEmptyPartition(t *testing.T) {
	h := mustNew(t, testConfig())
	if got := h.NumPartitions(); got != 2 {
		t.Fatalf("NumPartitions = %d, want 2 (one allocatable + one empty)", got)
	}
	if h.EmptyPartition() == NoPartition {
		t.Fatal("EmptyPartition = NoPartition, want a reserved partition")
	}
	if used := h.Partition(h.EmptyPartition()).Used(); used != 0 {
		t.Fatalf("empty partition has %d used bytes", used)
	}
}

func TestNewWithoutReservedEmpty(t *testing.T) {
	cfg := testConfig()
	cfg.ReserveEmpty = false
	h := mustNew(t, cfg)
	if got := h.NumPartitions(); got != 1 {
		t.Fatalf("NumPartitions = %d, want 1", got)
	}
	if h.EmptyPartition() != NoPartition {
		t.Fatalf("EmptyPartition = %d, want NoPartition", h.EmptyPartition())
	}
}

func TestAllocBasics(t *testing.T) {
	h := mustNew(t, testConfig())
	obj := mustAlloc(t, h, 1, 100, 3, NilOID)
	if obj.OID != 1 || obj.Size != 100 || len(obj.Fields) != 3 {
		t.Fatalf("object = %+v", obj)
	}
	if obj.Partition == h.EmptyPartition() {
		t.Fatal("allocated into the reserved empty partition")
	}
	if obj.Weight != MaxWeight {
		t.Fatalf("new object weight = %d, want %d", obj.Weight, MaxWeight)
	}
	if !h.Contains(1) || h.Get(1) != obj {
		t.Fatal("object table does not resolve the new OID")
	}
	if h.TotalAllocatedBytes() != 100 || h.TotalAllocatedObjects() != 1 {
		t.Fatalf("cumulative accounting = (%d bytes, %d objects)",
			h.TotalAllocatedBytes(), h.TotalAllocatedObjects())
	}
}

func TestAllocRejectsBadSizes(t *testing.T) {
	h := mustNew(t, testConfig())
	if _, _, err := h.Alloc(1, 0, 0, NilOID); err == nil {
		t.Error("Alloc size 0: want error")
	}
	if _, _, err := h.Alloc(2, -5, 0, NilOID); err == nil {
		t.Error("Alloc negative size: want error")
	}
	_, _, err := h.Alloc(3, h.Config().PartitionBytes()+1, 0, NilOID)
	if !errors.Is(err, ErrObjectTooLarge) {
		t.Errorf("oversized Alloc: err = %v, want ErrObjectTooLarge", err)
	}
}

// TestAllocLargestOID: the largest OID a trace can carry costs one index
// page plus the directory, not a table spanning every smaller OID, and
// the first OID past it is refused with ErrSparseOID.
func TestAllocLargestOID(t *testing.T) {
	h := mustNew(t, testConfig())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const largest = OID(1)<<32 - 1
	mustAlloc(t, h, largest, 100, 0, NilOID)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 2<<20 {
		t.Errorf("Alloc(%d) grew the Go heap by %d bytes, want at most 2 MiB", largest, grew)
	}
	if got := h.Get(largest); got == nil || got.OID != largest {
		t.Fatalf("Get(%d) = %v after Alloc", largest, got)
	}
	if got := h.OIDBound(); got != largest+1 {
		t.Errorf("OIDBound = %d, want %d", got, largest+1)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Alloc(largest+1, 100, 0, NilOID); !errors.Is(err, ErrSparseOID) {
		t.Errorf("Alloc(%d): err = %v, want ErrSparseOID", largest+1, err)
	}
	if h.Get(largest+1) != nil || h.Len() != 1 {
		t.Errorf("refused Alloc left an object behind (Len %d)", h.Len())
	}
	runtime.KeepAlive(h)
}

// TestObjectFitsCacheLine: the hot paths touch one Object per pointer
// they follow, so the record stays within one 64-byte cache line.
func TestObjectFitsCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got != 64 {
		t.Fatalf("Object is %d bytes, want 64", got)
	}
}

func TestAllocDuplicateOIDPanics(t *testing.T) {
	h := mustNew(t, testConfig())
	mustAlloc(t, h, 1, 100, 0, NilOID)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Alloc did not panic")
		}
	}()
	h.Alloc(1, 100, 0, NilOID) //nolint:errcheck
}

func TestAllocPlacesNearParent(t *testing.T) {
	h := mustNew(t, testConfig())
	parent := mustAlloc(t, h, 1, 100, 2, NilOID)
	child := mustAlloc(t, h, 2, 100, 2, 1)
	if child.Partition != parent.Partition {
		t.Fatalf("child partition %d, parent partition %d", child.Partition, parent.Partition)
	}
	if child.Addr != parent.End() {
		t.Fatalf("child addr %d, want bump-contiguous %d", child.Addr, parent.End())
	}
}

func TestAllocOverflowsToOtherPartitionThenGrows(t *testing.T) {
	cfg := testConfig() // partition = 32768 bytes
	h := mustNew(t, cfg)
	part := cfg.PartitionBytes()

	// Fill the first partition exactly.
	mustAlloc(t, h, 1, part, 0, NilOID)
	if h.NumPartitions() != 2 {
		t.Fatalf("NumPartitions = %d after exact fill, want 2", h.NumPartitions())
	}

	// Next allocation cannot use the full partition nor the reserved empty
	// one, so the heap must grow.
	obj, grew, err := h.Alloc(2, 100, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if grew.Added != 1 {
		t.Fatalf("grew.Added = %d, want 1", grew.Added)
	}
	if h.NumPartitions() != 3 {
		t.Fatalf("NumPartitions = %d, want 3", h.NumPartitions())
	}
	if obj.Partition == h.EmptyPartition() {
		t.Fatal("allocated into the reserved empty partition")
	}

	// A further allocation fits in the new partition: no growth.
	_, grew2, err := h.Alloc(3, 100, 0, NilOID)
	if err != nil {
		t.Fatal(err)
	}
	if grew2.Added != 0 {
		t.Fatalf("grew2.Added = %d, want 0", grew2.Added)
	}
}

func TestAllocPrefersMostFreePartition(t *testing.T) {
	cfg := testConfig()
	h := mustNew(t, cfg)
	part := cfg.PartitionBytes()

	mustAlloc(t, h, 1, part-100, 0, NilOID) // partition 0: 100 free
	obj2 := mustAlloc(t, h, 2, 200, 0, NilOID)
	if obj2.Partition == 0 {
		t.Fatal("200-byte object placed in partition with 100 free bytes")
	}
	// partition obj2.Partition now has part-200 free, more than partition 0.
	obj3 := mustAlloc(t, h, 3, 50, 0, NilOID)
	if obj3.Partition != obj2.Partition {
		t.Fatalf("obj3 in partition %d, want most-free partition %d", obj3.Partition, obj2.Partition)
	}
}

func TestWriteFieldReturnsOldValue(t *testing.T) {
	h := mustNew(t, testConfig())
	mustAlloc(t, h, 1, 100, 2, NilOID)
	mustAlloc(t, h, 2, 100, 0, NilOID)
	mustAlloc(t, h, 3, 100, 0, NilOID)

	if old := h.WriteField(1, 0, 2); old != NilOID {
		t.Fatalf("first store old = %d, want nil", old)
	}
	if old := h.WriteField(1, 0, 3); old != 2 {
		t.Fatalf("overwrite old = %d, want 2", old)
	}
	if got := h.Get(1).Fields[0]; got != 3 {
		t.Fatalf("field = %d, want 3", got)
	}
}

func TestWriteFieldPanics(t *testing.T) {
	h := mustNew(t, testConfig())
	mustAlloc(t, h, 1, 100, 1, NilOID)
	for _, tc := range []struct {
		name string
		src  OID
		f    int
	}{
		{"missing object", 99, 0},
		{"field too high", 1, 1},
		{"negative field", 1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			h.WriteField(tc.src, tc.f, NilOID)
		})
	}
}

func TestMoveRelocatesIntoEmptyPartition(t *testing.T) {
	h := mustNew(t, testConfig())
	obj := mustAlloc(t, h, 1, 100, 0, NilOID)
	src := obj.Partition
	dst := h.EmptyPartition()

	h.Move(1, dst)
	if obj.Partition != dst {
		t.Fatalf("partition = %d, want %d", obj.Partition, dst)
	}
	if obj.Addr != h.Partition(dst).Base {
		t.Fatalf("addr = %d, want base %d", obj.Addr, h.Partition(dst).Base)
	}
	if h.Partition(src).Len() != 0 {
		t.Fatal("object still listed in source partition")
	}
	// Source space is not freed until the partition is reset.
	if h.Partition(src).Used() != 100 {
		t.Fatalf("source used = %d, want 100 (no early reuse)", h.Partition(src).Used())
	}
	h.ResetPartition(src)
	if h.Partition(src).Used() != 0 {
		t.Fatal("reset did not free the partition")
	}
}

func TestMoveWithoutRoomPanics(t *testing.T) {
	cfg := testConfig()
	h := mustNew(t, cfg)
	mustAlloc(t, h, 1, cfg.PartitionBytes(), 0, NilOID)
	mustAlloc(t, h, 2, cfg.PartitionBytes(), 0, NilOID) // forces growth
	defer func() {
		if recover() == nil {
			t.Error("Move into full partition did not panic")
		}
	}()
	h.Move(1, h.Get(2).Partition)
}

func TestDiscardRemovesObject(t *testing.T) {
	h := mustNew(t, testConfig())
	obj := mustAlloc(t, h, 1, 100, 0, NilOID)
	p := obj.Partition
	h.Discard(1)
	if h.Contains(1) {
		t.Fatal("discarded object still resident")
	}
	if h.Partition(p).Len() != 0 {
		t.Fatal("discarded object still in partition set")
	}
}

func TestDiscardRootPanics(t *testing.T) {
	h := mustNew(t, testConfig())
	mustAlloc(t, h, 1, 100, 0, NilOID)
	h.AddRoot(1)
	defer func() {
		if recover() == nil {
			t.Error("Discard of a root did not panic")
		}
	}()
	h.Discard(1)
}

func TestResetNonEmptyPartitionPanics(t *testing.T) {
	h := mustNew(t, testConfig())
	obj := mustAlloc(t, h, 1, 100, 0, NilOID)
	defer func() {
		if recover() == nil {
			t.Error("ResetPartition with residents did not panic")
		}
	}()
	h.ResetPartition(obj.Partition)
}

func TestSetEmptyPartitionRequiresEmpty(t *testing.T) {
	h := mustNew(t, testConfig())
	obj := mustAlloc(t, h, 1, 100, 0, NilOID)
	defer func() {
		if recover() == nil {
			t.Error("SetEmptyPartition on used partition did not panic")
		}
	}()
	h.SetEmptyPartition(obj.Partition)
}

func TestPageRange(t *testing.T) {
	h := mustNew(t, testConfig()) // page size 8192
	for _, tc := range []struct {
		addr        Addr
		size        int64
		first, last PageID
	}{
		{0, 1, 0, 0},
		{0, 8192, 0, 0},
		{0, 8193, 0, 1},
		{8191, 2, 0, 1},
		{8192, 100, 1, 1},
		{16384, 65536, 2, 9}, // a 64 KB large object spans 8 pages
	} {
		first, last := h.PageRange(tc.addr, tc.size)
		if first != tc.first || last != tc.last {
			t.Errorf("PageRange(%d,%d) = (%d,%d), want (%d,%d)",
				tc.addr, tc.size, first, last, tc.first, tc.last)
		}
	}
}

func TestPartitionOfAddr(t *testing.T) {
	cfg := testConfig()
	h := mustNew(t, cfg)
	pb := Addr(cfg.PartitionBytes())
	if got := h.PartitionOfAddr(0); got != 0 {
		t.Errorf("PartitionOfAddr(0) = %d", got)
	}
	if got := h.PartitionOfAddr(pb - 1); got != 0 {
		t.Errorf("PartitionOfAddr(partBytes-1) = %d", got)
	}
	if got := h.PartitionOfAddr(pb); got != 1 {
		t.Errorf("PartitionOfAddr(partBytes) = %d", got)
	}
	if got := h.PartitionOfAddr(10 * pb); got != NoPartition {
		t.Errorf("PartitionOfAddr(beyond extent) = %d, want NoPartition", got)
	}
}

func TestOccupiedAndFootprintBytes(t *testing.T) {
	cfg := testConfig()
	h := mustNew(t, cfg)
	mustAlloc(t, h, 1, 100, 0, NilOID)
	mustAlloc(t, h, 2, 250, 0, NilOID)
	if got := h.OccupiedBytes(); got != 350 {
		t.Fatalf("OccupiedBytes = %d, want 350", got)
	}
	if got := h.FootprintBytes(); got != 2*cfg.PartitionBytes() {
		t.Fatalf("FootprintBytes = %d, want %d", got, 2*cfg.PartitionBytes())
	}
}

func TestRootsSet(t *testing.T) {
	h := mustNew(t, testConfig())
	mustAlloc(t, h, 1, 100, 0, NilOID)
	mustAlloc(t, h, 2, 100, 0, NilOID)
	h.AddRoot(1)
	if !h.IsRoot(1) || h.IsRoot(2) {
		t.Fatal("root membership wrong")
	}
	if h.NumRoots() != 1 {
		t.Fatalf("NumRoots = %d, want 1", h.NumRoots())
	}
	var seen []OID
	h.Roots(func(oid OID) { seen = append(seen, oid) })
	if len(seen) != 1 || seen[0] != 1 {
		t.Fatalf("Roots iterated %v", seen)
	}
}

func TestAddRootMissingObjectPanics(t *testing.T) {
	h := mustNew(t, testConfig())
	defer func() {
		if recover() == nil {
			t.Error("AddRoot of missing object did not panic")
		}
	}()
	h.AddRoot(42)
}

func TestPointerCount(t *testing.T) {
	o := &Object{Fields: []OID{0, 3, 0, 7}}
	if got := o.PointerCount(); got != 2 {
		t.Fatalf("PointerCount = %d, want 2", got)
	}
}
