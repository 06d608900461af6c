// Package check is the simulator's correctness layer: a cross-structure
// invariant auditor that reconciles the incrementally maintained hot
// structures (object table, partition residents, remembered sets, page
// buffer frame arena, counters) against brute-force ground truth, and a
// differential self-check harness (SelfCheck) that replays one
// configuration through deliberately independent slow paths and demands
// bit-identical results.
//
// The auditor hooks into a run through sim.Config.Audit (see Audited);
// with the hook unset the simulator's event path pays only a nil check,
// so production runs are unaffected.
package check

import (
	"fmt"
	"sort"

	"odbgc/internal/heap"
	"odbgc/internal/remset"
	"odbgc/internal/sim"
)

// Run executes the full invariant catalog against a simulator at a
// quiescent point (between events). It is O(heap + buffer) per call and
// returns the first violation found, or nil.
func Run(s *sim.Sim) error {
	if err := s.Heap().CheckInvariants(); err != nil {
		return err
	}
	if t := s.Tiered(); t != nil {
		if err := t.CheckInvariants(); err != nil {
			return err
		}
	} else if err := s.Buffer().CheckInvariants(); err != nil {
		return err
	}
	if err := Remsets(s.Heap(), s.Remset()); err != nil {
		return err
	}
	if err := Weights(s.Heap()); err != nil {
		return err
	}
	return Conservation(s)
}

// Audited returns the audit configuration wiring the full catalog into a
// simulation: everyCollections and everyEvents set the cadence as in
// sim.AuditConfig.
func Audited(everyCollections int, everyEvents int64) sim.AuditConfig {
	return sim.AuditConfig{
		Check:            Run,
		EveryCollections: everyCollections,
		EveryEvents:      everyEvents,
	}
}

// pointerLoc names one pointer field for remembered-set reconciliation.
type pointerLoc struct {
	src   heap.OID
	field int
}

// Remsets reconciles the remembered sets against a brute-force scan of
// every pointer field in the heap, in both directions:
//
//   - every inter-partition pointer src.field → target must appear in the
//     in-set of target's partition, recording the actual target;
//   - every recorded entry must correspond to a live inter-partition
//     pointer (no stale or corrupted entries);
//   - the out-set of each partition must hold exactly the objects with at
//     least one outgoing inter-partition pointer;
//   - every object's out-count must equal its actual number of
//     out-of-partition fields.
//
// It is implemented purely against the public heap and remset API, so it
// cross-checks remset.Table.Audit rather than sharing its code.
func Remsets(h *heap.Heap, rem *remset.Table) error {
	wantIn := make(map[heap.PartitionID]map[pointerLoc]heap.OID)
	wantOutMembers := make(map[heap.PartitionID]map[heap.OID]bool)
	wantOutCount := make(map[heap.OID]int)
	var scanErr error
	for pid := 0; pid < h.NumPartitions(); pid++ {
		p := heap.PartitionID(pid)
		h.Partition(p).Objects(func(oid heap.OID) {
			if scanErr != nil {
				return
			}
			obj := h.Get(oid)
			for f, target := range obj.Fields {
				if target == heap.NilOID {
					continue
				}
				tObj := h.Get(target)
				if tObj == nil {
					scanErr = fmt.Errorf("check: object %d field %d points to non-resident object %d (dangling pointer)", oid, f, target)
					return
				}
				if tObj.Partition == obj.Partition {
					continue
				}
				set := wantIn[tObj.Partition]
				if set == nil {
					set = make(map[pointerLoc]heap.OID)
					wantIn[tObj.Partition] = set
				}
				set[pointerLoc{oid, f}] = target
				members := wantOutMembers[obj.Partition]
				if members == nil {
					members = make(map[heap.OID]bool)
					wantOutMembers[obj.Partition] = members
				}
				members[oid] = true
				wantOutCount[oid]++
			}
		})
	}
	if scanErr != nil {
		return scanErr
	}

	// In-sets, both directions. RootsInto yields every recorded entry of a
	// partition; comparing the per-partition counts afterwards turns "every
	// recorded entry is wanted" plus "counts match" into set equality.
	for pid := 0; pid < h.NumPartitions(); pid++ {
		p := heap.PartitionID(pid)
		want := wantIn[p]
		var firstErr error
		seen := 0
		rem.RootsInto(p, func(e remset.Entry, target heap.OID) {
			if firstErr != nil {
				return
			}
			seen++
			actual, ok := want[pointerLoc{e.Src, e.Field}]
			if !ok {
				firstErr = fmt.Errorf("check: remembered set of partition %d holds stale entry %d.%d (no such inter-partition pointer)", p, e.Src, e.Field)
				return
			}
			if target != actual {
				firstErr = fmt.Errorf("check: remembered entry %d.%d into partition %d records target %d, heap field holds %d", e.Src, e.Field, p, target, actual)
			}
		})
		if firstErr != nil {
			return firstErr
		}
		if seen != len(want) {
			return fmt.Errorf("check: partition %d remembers %d pointers, heap has %d inter-partition pointers into it", p, seen, len(want))
		}
		if n := rem.InCount(p); n != len(want) {
			return fmt.Errorf("check: partition %d in-count %d, heap has %d inter-partition pointers into it", p, n, len(want))
		}
	}

	// Out-sets and the out-counts.
	for pid := 0; pid < h.NumPartitions(); pid++ {
		p := heap.PartitionID(pid)
		members := wantOutMembers[p]
		var firstErr error
		seen := 0
		rem.OutSet(p, func(oid heap.OID) {
			if firstErr != nil {
				return
			}
			seen++
			if !members[oid] {
				firstErr = fmt.Errorf("check: out-set of partition %d lists object %d, which has no out-of-partition pointer", p, oid)
			}
		})
		if firstErr != nil {
			return firstErr
		}
		if seen != len(members) {
			return fmt.Errorf("check: out-set of partition %d lists %d objects, heap has %d with out-pointers", p, seen, len(members))
		}
	}
	return lowestViolation(h, func(oid heap.OID) error {
		if got, want := rem.OutCount(oid), wantOutCount[oid]; got != want {
			return fmt.Errorf("check: object %d out-count %d, heap has %d out-of-partition fields", oid, got, want)
		}
		return nil
	})
}

// lowestViolation returns the error check reports for the lowest resident
// OID it fails on, or nil. It walks the partitions' resident lists, so it
// costs O(resident objects) however many OIDs the heap has issued, and
// the violation it names does not depend on the order objects sit in
// those lists.
func lowestViolation(h *heap.Heap, check func(heap.OID) error) error {
	var first error
	var lowest heap.OID
	for pid := 0; pid < h.NumPartitions(); pid++ {
		h.Partition(heap.PartitionID(pid)).Objects(func(oid heap.OID) {
			if first != nil && oid > lowest {
				return
			}
			if err := check(oid); err != nil {
				first, lowest = err, oid
			}
		})
	}
	return first
}

// Weights verifies the WeightedPointer metadata bounds: every resident
// object's weight lies in [1, heap.MaxWeight] (the 4-bit encoding plus
// the "weight 0 never appears" floor), and every database root has
// weight exactly 1 — roots are relaxed to 1 when rooted and weights only
// decrease.
func Weights(h *heap.Heap) error {
	return lowestViolation(h, func(oid heap.OID) error {
		obj := h.Get(oid)
		if obj.Weight < 1 || obj.Weight > heap.MaxWeight {
			return fmt.Errorf("check: object %d weight %d outside [1,%d]", oid, obj.Weight, heap.MaxWeight)
		}
		if h.IsRoot(oid) && obj.Weight != 1 {
			return fmt.Errorf("check: root object %d has weight %d, want 1", oid, obj.Weight)
		}
		return nil
	})
}

// Conservation verifies the byte and object accounting across the
// allocator, collector, and reachability oracle:
//
//   - total allocated bytes == occupied bytes + lifetime reclaimed bytes
//     (nothing leaks, nothing is double-reclaimed), and likewise for
//     object counts;
//   - live bytes never exceed occupied bytes;
//   - the oracle's per-partition garbage tallies are non-negative and sum
//     to occupied − live.
//
// The collector's lifetime counters make this hold across warm-start
// measurement resets. It holds only between events: mid-collection an
// object is transiently accounted in two places.
func Conservation(s *sim.Sim) error {
	h := s.Heap()
	life := s.CollectorLifetime()
	occupied := h.OccupiedBytes()
	if got, want := occupied+life.ReclaimedBytes, h.TotalAllocatedBytes(); got != want {
		return fmt.Errorf("check: byte conservation violated: occupied %d + reclaimed %d = %d, total allocated %d",
			occupied, life.ReclaimedBytes, got, want)
	}
	if got, want := int64(h.Len())+life.ReclaimedObjects, h.TotalAllocatedObjects(); got != want {
		return fmt.Errorf("check: object conservation violated: resident %d + reclaimed %d = %d, total allocated %d",
			h.Len(), life.ReclaimedObjects, got, want)
	}
	live := s.Oracle().LiveBytes()
	if live > occupied {
		return fmt.Errorf("check: live bytes %d exceed occupied bytes %d", live, occupied)
	}
	var garbage int64
	for p, g := range s.Oracle().GarbageByPartition() {
		if g < 0 {
			return fmt.Errorf("check: partition %d has negative garbage %d", p, g)
		}
		garbage += g
	}
	if garbage != occupied-live {
		return fmt.Errorf("check: per-partition garbage sums to %d, occupied−live is %d", garbage, occupied-live)
	}
	return nil
}

// TriggerParity verifies the policy-independence of the collection
// trigger across a suite: the paper's pairing discipline replays one
// workload seed under every policy, and since pointer overwrites are a
// function of the trace alone, the trigger must fire at the same events
// everywhere. For each seed index the event count, overwrite count,
// allocated bytes, and trigger activations (collections + declined
// selections) must agree across all policies.
//
// The activation identity assumes each activation collects at most one
// partition (sim.Config.CollectPartitions ≤ 1), the paper's setting.
func TriggerParity(results map[string][]sim.Result) error {
	// Iterate policies in sorted order so the first divergence reported
	// is the same on every run.
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil
	}
	refName := names[0]
	ref := results[refName]
	for _, name := range names[1:] {
		rs := results[name]
		if len(rs) != len(ref) {
			return fmt.Errorf("check: %s ran %d seeds, %s ran %d", name, len(rs), refName, len(ref))
		}
		for i := range rs {
			a, b := ref[i], rs[i]
			if a.Events != b.Events {
				return fmt.Errorf("check: seed %d: %s saw %d events, %s saw %d — shared trace violated", i, refName, a.Events, name, b.Events)
			}
			if a.Overwrites != b.Overwrites {
				return fmt.Errorf("check: seed %d: %s counted %d overwrites, %s counted %d — barrier depends on policy", i, refName, a.Overwrites, name, b.Overwrites)
			}
			if a.TotalAllocatedBytes != b.TotalAllocatedBytes {
				return fmt.Errorf("check: seed %d: %s allocated %d bytes, %s allocated %d", i, refName, a.TotalAllocatedBytes, name, b.TotalAllocatedBytes)
			}
			if aAct, bAct := a.Collections+a.Declined, b.Collections+b.Declined; aAct != bAct {
				return fmt.Errorf("check: seed %d: trigger fired %d times under %s but %d under %s — trigger is not policy-independent",
					i, aAct, refName, bAct, name)
			}
		}
	}
	return nil
}
