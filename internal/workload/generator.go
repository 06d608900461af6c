package workload

import (
	"fmt"
	"math/rand"

	"odbgc/internal/heap"
	"odbgc/internal/trace"
)

// Field layout of a regular node. Tree edges occupy the first two fields;
// the dense edge and large-leaf attachment get one field each. Large leaf
// objects have no fields.
const (
	fieldLeftChild  = 0
	fieldRightChild = 1
	fieldDense      = 2
	fieldLarge      = 3
	nodeFields      = 4
)

// Stats summarizes a generated trace.
type Stats struct {
	// Events is the total number of events emitted.
	Events int64
	// Creates, Roots, Reads, Writes, Modifies count events by kind.
	Creates, Roots, Reads, Writes, Modifies int64
	// Deletions counts tree-edge deletions (the garbage-creating pointer
	// overwrites).
	Deletions int64
	// TraversalsNone, TraversalsDFS, TraversalsBFS count visit actions by
	// style (the paper's odds: 30% none, 20% depth-first, 50%
	// breadth-first).
	TraversalsNone, TraversalsDFS, TraversalsBFS int64
	// AllocatedBytes is cumulative allocation; LiveBytesEstimate is the
	// generator's final visitable-set estimate.
	AllocatedBytes    int64
	LiveBytesEstimate int64
	// Nodes and LargeObjects count allocations by class; Trees counts
	// trees created.
	Nodes, LargeObjects, Trees int64
	// DenseEdges counts dense edges installed; CrossTreeEdges counts the
	// subset that landed in a different tree (CrossTreeFraction > 0).
	DenseEdges     int64
	CrossTreeEdges int64
	// EdgeReadWriteRatio is Reads divided by Writes+Creates (every
	// create counts, roots and large leaves included) — the paper keeps
	// it around 15–20.
	EdgeReadWriteRatio float64
}

// noSlot marks an absent child and a dead sampling-pool entry.
const noSlot int32 = -1

// node is the generator's private view of one alive tree node. It lives
// in a Generator.store slot that is recycled once the node dies, so the
// generator refers to nodes by slot and keeps the OID only to write
// events.
type node struct {
	oid      heap.OID
	largeOID heap.OID // OID of the attached large leaf, NilOID if none
	size     int64    // node size, excluding any attached large leaf
	kids     [2]int32 // child slots, noSlot if none
	pos      int32    // index of the node's entry in its tree's pool
}

// tree is one augmented binary tree.
type tree struct {
	root int32 // slot of the root, which is never deleted
	// pool is a sampling pool of slots for uniform picks. killSubtree
	// marks a dead node's entry noSlot, and pickAlive swap-removes dead
	// entries lazily as it draws them, so the pool's length — which
	// every draw depends on — evolves exactly as if it held OIDs.
	// aliveCount is the exact number of alive nodes.
	pool       []int32
	aliveCount int
	// idx is the tree's position in Generator.trees (and its slot in the
	// Fenwick index), -1 until the tree is registered.
	idx int
}

// Generator emits the synthetic application trace. It is single-use: one
// Run per Generator.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	sink trace.Sink

	trees []*tree
	// store holds the alive nodes; killSubtree pushes a dead node's slot
	// on free and createNode reuses it, so the store's length is the
	// peak alive node count, not the number of OIDs ever issued.
	store      []node
	free       []int32
	nextOID    heap.OID
	totalAlive int
	// treeBIT is a 1-based Fenwick index over the trees' aliveCount, so
	// the alive-weighted tree pick in pickTree is O(log trees). Trees are
	// never removed: pickTreeUniform draws over every tree ever built,
	// so dropping a chopped-down one would change the trace. With a long
	// churn phase the tree count grows linearly with total allocation,
	// and a linear scan per deletion would turn the whole run quadratic.
	treeBIT []int

	// Scratch reused across calls: queue by the breadth-first walks
	// (buildTreeSized, traverseBreadthFirst), which never nest, and
	// stack by killSubtree.
	queue, stack []int32

	liveBytes  int64
	allocBytes int64
	stats      Stats
	ran        bool

	buildDone func()
}

// SetBuildCompleteHook registers fn to run once, after the build phase
// finishes and before the churn phase starts. Warm-start measurement uses
// it to discard build-phase costs. It must be set before Run.
func (g *Generator) SetBuildCompleteHook(fn func()) { g.buildDone = fn }

// New returns a generator for cfg.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), nextOID: 1}, nil
}

// Run generates the whole trace into sink and returns the trace summary.
func (g *Generator) Run(sink trace.Sink) (Stats, error) {
	if g.ran {
		return Stats{}, fmt.Errorf("workload: generator already ran")
	}
	g.ran = true
	g.sink = sink

	// Build phase: create trees until the live target is reached.
	for g.liveBytes < g.cfg.TargetLiveBytes {
		if err := g.buildTree(); err != nil {
			return g.stats, err
		}
	}
	if g.buildDone != nil {
		g.buildDone()
	}

	// Churn phase: traverse, delete, regrow until the allocation and
	// deletion targets are met.
	for g.allocBytes < g.cfg.TotalAllocBytes || g.stats.Deletions < g.cfg.MinDeletions {
		if g.stats.Events >= g.cfg.MaxEvents {
			return g.stats, fmt.Errorf("workload: event cap %d hit before targets (alloc %d/%d, deletions %d/%d)",
				g.cfg.MaxEvents, g.allocBytes, g.cfg.TotalAllocBytes, g.stats.Deletions, g.cfg.MinDeletions)
		}
		if err := g.traversalAction(); err != nil {
			return g.stats, err
		}
		nDel := int(g.cfg.DeletionsPerTraversal)
		if frac := g.cfg.DeletionsPerTraversal - float64(nDel); g.rng.Float64() < frac {
			nDel++
		}
		deleted := false
		for i := 0; i < nDel; i++ {
			ok, err := g.deleteRandomEdge()
			if err != nil {
				return g.stats, err
			}
			deleted = deleted || ok
		}
		for g.liveBytes < g.cfg.TargetLiveBytes {
			if err := g.grow(); err != nil {
				return g.stats, err
			}
		}
		if !deleted && nDel > 0 {
			// The forest has been chopped to childless stumps (possible
			// when heavy large leaves keep the live estimate above the
			// setpoint); grow fresh deletable trees so churn can proceed.
			if err := g.grow(); err != nil {
				return g.stats, err
			}
		}
	}

	g.stats.AllocatedBytes = g.allocBytes
	g.stats.LiveBytesEstimate = g.liveBytes
	if w := g.stats.Writes + g.stats.Creates; w > 0 {
		g.stats.EdgeReadWriteRatio = float64(g.stats.Reads) / float64(w)
	}
	return g.stats, nil
}

// emit sends one event and updates the event counters.
func (g *Generator) emit(e trace.Event) error {
	if err := g.sink.Emit(e); err != nil {
		return err
	}
	g.stats.Events++
	switch e.Kind {
	case trace.KindCreate:
		g.stats.Creates++
	case trace.KindRoot:
		g.stats.Roots++
	case trace.KindRead:
		g.stats.Reads++
	case trace.KindWrite:
		g.stats.Writes++
	case trace.KindModify:
		g.stats.Modifies++
	}
	return nil
}

func (g *Generator) nodeSize() int64 {
	return g.cfg.MinObjectSize + g.rng.Int63n(g.cfg.MaxObjectSize-g.cfg.MinObjectSize+1)
}

// createNode allocates a node object under the node in slot parent
// (noSlot for a tree root), registers it in t, and possibly attaches a
// dense edge and a large leaf. It returns the new node's slot.
func (g *Generator) createNode(t *tree, parent int32, parentField int) (int32, error) {
	oid := g.nextOID
	g.nextOID++
	size := g.nodeSize()
	parentOID := heap.NilOID
	if parent != noSlot {
		parentOID = g.store[parent].oid
	}
	if err := g.emit(trace.Event{
		Kind: trace.KindCreate, OID: oid, Size: size, NFields: nodeFields,
		Parent: parentOID, ParentField: parentField,
	}); err != nil {
		return noSlot, err
	}
	var s int32
	if n := len(g.free); n > 0 {
		s = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		s = int32(len(g.store))
		g.store = append(g.store, node{})
	}
	g.store[s] = node{oid: oid, size: size, kids: [2]int32{noSlot, noSlot}, pos: int32(len(t.pool))}
	t.pool = append(t.pool, s)
	t.aliveCount++
	g.totalAlive++
	if t.idx >= 0 {
		g.bitAdd(t.idx, 1)
	}
	if parent != noSlot {
		g.store[parent].kids[parentField] = s
	}
	g.liveBytes += size
	g.allocBytes += size
	g.stats.Nodes++

	// Dense edge to a random alive node — of the same tree, or (with
	// probability CrossTreeFraction) of a uniformly chosen tree. The
	// cross-tree branch draws randomness only when the knob is set, so
	// CrossTreeFraction == 0 reproduces existing traces bit-identically.
	if g.rng.Float64() < g.cfg.DenseEdgeFraction {
		target, crossed := noSlot, false
		if g.cfg.CrossTreeFraction > 0 && g.rng.Float64() < g.cfg.CrossTreeFraction {
			if other := g.pickTreeUniform(); other != nil {
				target = g.pickAlive(other)
				crossed = other != t
			}
		}
		if target == noSlot {
			target, crossed = g.pickAlive(t), false
		}
		if target != noSlot && target != s {
			if err := g.emit(trace.Event{Kind: trace.KindWrite, OID: oid, Field: fieldDense, Target: g.store[target].oid}); err != nil {
				return noSlot, err
			}
			g.stats.DenseEdges++
			if crossed {
				g.stats.CrossTreeEdges++
			}
		}
	}

	// Large leaf attachment.
	if g.cfg.LargeEvery > 0 && g.rng.Intn(g.cfg.LargeEvery) == 0 {
		largeOID := g.nextOID
		g.nextOID++
		if err := g.emit(trace.Event{
			Kind: trace.KindCreate, OID: largeOID, Size: g.cfg.LargeObjectSize,
			NFields: 0, Parent: oid, ParentField: fieldLarge,
		}); err != nil {
			return noSlot, err
		}
		g.store[s].largeOID = largeOID
		g.liveBytes += g.cfg.LargeObjectSize
		g.allocBytes += g.cfg.LargeObjectSize
		g.stats.LargeObjects++
	}
	return s, nil
}

// buildTree creates one augmented binary tree breadth-first with a size
// drawn uniformly from [mean/2, 3·mean/2).
func (g *Generator) buildTree() error {
	return g.buildTreeSized(g.cfg.MeanTreeNodes/2 + g.rng.Intn(g.cfg.MeanTreeNodes))
}

// buildTreeSized creates one augmented binary tree of the given node count
// breadth-first.
func (g *Generator) buildTreeSized(target int) error {
	if target < 2 {
		target = 2
	}
	// The fill below creates exactly target nodes in t.
	t := &tree{idx: -1, pool: make([]int32, 0, target)}
	root, err := g.createNode(t, noSlot, 0)
	if err != nil {
		return err
	}
	t.root = root
	if err := g.emit(trace.Event{Kind: trace.KindRoot, OID: g.store[root].oid}); err != nil {
		return err
	}
	t.idx = len(g.trees)
	g.trees = append(g.trees, t)
	g.bitAppend()
	g.bitAdd(t.idx, t.aliveCount) // the root, created before registration
	g.stats.Trees++

	// Breadth-first fill: attach children left-to-right, level by level.
	g.queue = append(g.queue[:0], root)
	count := 1
	for head := 0; count < target && head < len(g.queue); head++ {
		parent := g.queue[head]
		for f := 0; f < 2 && count < target; f++ {
			child, err := g.createNode(t, parent, f)
			if err != nil {
				return err
			}
			g.queue = append(g.queue, child)
			count++
		}
	}
	return nil
}

// pickAlive returns the slot of a uniformly random alive node of t,
// compacting the sampling pool as it goes, or noSlot if the tree is dead.
func (g *Generator) pickAlive(t *tree) int32 {
	for len(t.pool) > 0 {
		i := g.rng.Intn(len(t.pool))
		if s := t.pool[i]; s != noSlot {
			return s
		}
		last := len(t.pool) - 1
		moved := t.pool[last]
		t.pool[i] = moved
		t.pool = t.pool[:last]
		if moved != noSlot {
			g.store[moved].pos = int32(i)
		}
	}
	return noSlot
}

// pickTreeUniform returns a uniformly random tree (the paper: "the
// particular trees that are visited are chosen randomly"). Chopped-down
// trees are as likely as fresh ones, so traversals keep exercising
// deletion-diluted data — which is exactly what makes compaction pay off.
func (g *Generator) pickTreeUniform() *tree {
	if len(g.trees) == 0 {
		return nil
	}
	t := g.trees[g.rng.Intn(len(g.trees))]
	if t.aliveCount == 0 {
		// Unreachable: deletions never kill a root, so every tree keeps
		// aliveCount >= 1. Kept as a guard for callers that handle nil.
		return nil
	}
	return t
}

// pickTree returns a random tree weighted by its alive node count — the
// tree containing a uniformly random alive node of the forest. Deletions
// use it so that "randomly deleting tree edges" picks a uniformly random
// edge of the whole forest. The Fenwick descend finds the first tree
// whose cumulative alive count exceeds r — the same tree a linear scan
// in list order would select, in O(log trees).
func (g *Generator) pickTree() *tree {
	if g.totalAlive == 0 {
		return nil
	}
	r := g.rng.Intn(g.totalAlive)
	idx := 0
	mask := 1
	for mask*2 <= len(g.treeBIT) {
		mask *= 2
	}
	for ; mask > 0; mask >>= 1 {
		if next := idx + mask; next <= len(g.treeBIT) && g.treeBIT[next-1] <= r {
			r -= g.treeBIT[next-1]
			idx = next
		}
	}
	return g.trees[idx]
}

// bitAdd adds delta to tree idx's alive count in the Fenwick index.
func (g *Generator) bitAdd(idx, delta int) {
	for i := idx + 1; i <= len(g.treeBIT); i += i & -i {
		g.treeBIT[i-1] += delta
	}
}

// bitPrefix returns the summed alive count of the first n trees.
func (g *Generator) bitPrefix(n int) int {
	s := 0
	for i := n; i > 0; i -= i & -i {
		s += g.treeBIT[i-1]
	}
	return s
}

// bitAppend extends the Fenwick index by one zero-valued slot. The new
// cell subsumes the lowbit-sized range ending at it, so its initial
// value is that range's current sum.
func (g *Generator) bitAppend() {
	i := len(g.treeBIT) + 1
	g.treeBIT = append(g.treeBIT, g.bitPrefix(i-1)-g.bitPrefix(i-i&-i))
}

// traversalAction performs one visit action: none, a partial depth-first
// traversal, or a partial breadth-first traversal of a random tree.
func (g *Generator) traversalAction() error {
	roll := g.rng.Float64()
	if roll < g.cfg.PNoTraversal {
		g.stats.TraversalsNone++
		return nil
	}
	t := g.pickTreeUniform()
	if t == nil {
		return nil
	}
	if roll < g.cfg.PNoTraversal+g.cfg.PDepthFirst {
		g.stats.TraversalsDFS++
		return g.traverseDepthFirst(t.root)
	}
	g.stats.TraversalsBFS++
	return g.traverseBreadthFirst(t)
}

// visit reads the node in slot s, occasionally its large leaf, and
// occasionally modifies it.
func (g *Generator) visit(s int32) error {
	n := g.store[s]
	if err := g.emit(trace.Event{Kind: trace.KindRead, OID: n.oid}); err != nil {
		return err
	}
	if n.largeOID != heap.NilOID && g.rng.Float64() < g.cfg.PReadLarge {
		if err := g.emit(trace.Event{Kind: trace.KindRead, OID: n.largeOID}); err != nil {
			return err
		}
	}
	if g.rng.Float64() < g.cfg.PModify {
		if err := g.emit(trace.Event{Kind: trace.KindModify, OID: n.oid}); err != nil {
			return err
		}
	}
	return nil
}

func (g *Generator) traverseDepthFirst(s int32) error {
	if err := g.visit(s); err != nil {
		return err
	}
	for _, kid := range g.store[s].kids {
		if kid == noSlot {
			continue
		}
		if g.rng.Float64() < g.cfg.PSkipEdge {
			continue
		}
		if err := g.traverseDepthFirst(kid); err != nil {
			return err
		}
	}
	return nil
}

func (g *Generator) traverseBreadthFirst(t *tree) error {
	g.queue = append(g.queue[:0], t.root)
	for head := 0; head < len(g.queue); head++ {
		s := g.queue[head]
		if err := g.visit(s); err != nil {
			return err
		}
		for _, kid := range g.store[s].kids {
			if kid == noSlot {
				continue
			}
			if g.rng.Float64() < g.cfg.PSkipEdge {
				continue
			}
			g.queue = append(g.queue, kid)
		}
	}
	return nil
}

// deleteRandomEdge removes one tree edge: the pointer from a random
// non-root node's parent is overwritten with nil, making the subtree
// unreachable through tree edges (dense edges may keep parts of it alive
// in the heap — the simulator's concern, not ours). It reports whether an
// edge was actually deleted; a forest chopped down to childless stumps has
// nothing left to delete, and the churn loop must grow fresh material.
func (g *Generator) deleteRandomEdge() (bool, error) {
	for tries := 0; tries < 30; tries++ {
		t := g.pickTree()
		if t == nil {
			return false, nil
		}
		s := g.pickAlive(t)
		if s == noSlot {
			continue
		}
		kids := g.store[s].kids
		f := g.rng.Intn(2)
		if kids[f] == noSlot {
			f = 1 - f
		}
		if kids[f] == noSlot {
			continue
		}
		if err := g.emit(trace.Event{Kind: trace.KindWrite, OID: g.store[s].oid, Field: f, Target: heap.NilOID}); err != nil {
			return false, err
		}
		g.stats.Deletions++
		g.store[s].kids[f] = noSlot
		g.killSubtree(t, kids[f])
		return true, nil
	}
	return false, nil
}

// killSubtree removes the subtree of t rooted at slot s from the
// generator's model: it marks each node's pool entry dead, subtracts its
// bytes from the live estimate and frees its slot. Alive nodes only
// ever point at alive children, so every node reached is alive.
func (g *Generator) killSubtree(t *tree, s int32) {
	killed := 0
	g.stack = append(g.stack[:0], s)
	for len(g.stack) > 0 {
		cur := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		n := &g.store[cur]
		t.pool[n.pos] = noSlot
		killed++
		g.liveBytes -= n.size
		if n.largeOID != heap.NilOID {
			g.liveBytes -= g.cfg.LargeObjectSize
		}
		for _, kid := range n.kids {
			if kid != noSlot {
				g.stack = append(g.stack, kid)
			}
		}
		g.free = append(g.free, cur)
	}
	t.aliveCount -= killed
	g.totalAlive -= killed
	g.bitAdd(t.idx, -killed)
}

// grow restores the live-byte setpoint by creating one full-size fresh
// tree. Replacement data arrives as whole trees for the same reason the
// original forest is built tree-at-a-time: a tree built in one burst is
// physically contiguous (consecutive allocations land in the same
// partition) and its dense edges — random nodes of the *same* tree — stay
// mostly intra-partition. Grafting replacement nodes one-by-one onto old
// trees instead scatters children away from their parents and makes both
// tree and dense edges cross partitions; the resulting inter-partition
// references among garbage pin nearly everything through the remembered
// sets, and no selection policy (not even the oracle) can reclaim much.
func (g *Generator) grow() error { return g.buildTree() }
