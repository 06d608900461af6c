package sim

import (
	"runtime"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/heap"
	"odbgc/internal/workload"
)

// TestSimMemoryBoundedByResidentObjects is the hard guard on the
// simulator's memory bound (GOMEMLIMIT, which ci.sh applies, is only a
// soft limit). It streams a high-churn workload — 600,000 OIDs issued,
// under 20,000 resident at the end — into a simulator that collects
// often and samples through the oracle, then requires the simulator's Go
// heap to be at most 8 bytes per OID issued (the object index) plus a
// per-resident-object term plus fixed slack. Any per-OID scratch array
// beside the index (4 bytes per OID, 2.4 MB here) breaks the bound.
func TestSimMemoryBoundedByResidentObjects(t *testing.T) {
	const (
		perResident = 224     // Object record, fields, resident slot, remset share, pooled records
		slack       = 1 << 20 // partitions, page buffer, remset maps, a part-used index page
	)
	wl := workload.DefaultConfig()
	wl.TargetLiveBytes = 100_000
	wl.TotalAllocBytes = 60_000_000
	wl.MeanTreeNodes = 100
	wl.LargeEvery = 0
	cfg := Config{
		Policy:            core.NameUpdatedPointer,
		Seed:              1,
		Heap:              heap.Config{PageSize: 8192, PartitionPages: 4},
		TriggerOverwrites: 10,
		SampleEvery:       100_000, // runs the oracle
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := streamWorkload(wl, s); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	h := s.Heap()
	issued, resident := int64(h.OIDBound()), int64(h.Len())
	if issued < 500_000 || resident > issued/20 {
		t.Fatalf("workload issued %d OIDs with %d resident; the guard needs many issued and few resident", issued, resident)
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	bound := 8*issued + perResident*resident + slack
	t.Logf("Go heap grew %d bytes: %d OIDs issued, %d resident, bound %d", grew, issued, resident, bound)
	if grew > bound {
		t.Errorf("simulator holds %d bytes of Go heap, over the bound %d (8 B x %d OIDs + %d B x %d resident + %d)",
			grew, bound, issued, perResident, resident, slack)
	}
	runtime.KeepAlive(s)
}

// streamWorkload drives a generator straight into s, so neither the
// generator nor a recorded trace outlives the call.
func streamWorkload(wl workload.Config, s *Sim) error {
	g, err := workload.New(wl)
	if err != nil {
		return err
	}
	_, err = g.Run(s)
	return err
}
