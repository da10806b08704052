package hashring

import "sync"

// Locator is the lookup surface the reference TreeRing shares with Ring,
// stated so the equivalence tests hold both to it.
type Locator interface {
	// Owner returns the node owning key, or ok=false if the ring is empty.
	Owner(key string) (NodeID, bool)
	// Add inserts a physical node (with its virtual points).
	Add(node NodeID)
	// Remove deletes a physical node and all its virtual points.
	Remove(node NodeID)
	// Nodes returns the current physical members in unspecified order.
	Nodes() []NodeID
	// Len returns the number of physical members.
	Len() int
}

// TreeRing is a consistent-hash ring backed by a left-leaning red-black
// tree keyed on (hash, node). It mirrors the paper's C++ implementation,
// which stored ring points in a std::map and used lower_bound for the
// clockwise-successor query (§IV-B: "The implementation employs map data
// structure ... The logarithmic time complexity of map operations enables
// swift adaptation to node failures").
//
// It lives with the tests: Ring is the one production implementation and
// TreeRing the reference it is checked and benchmarked against
// (TestOwnershipEquivalenceUnderChurn, BenchmarkRingVsTree).
// Compared to Ring it trades slower lookups (pointer chasing) for
// O(V log P) membership changes instead of O(P) re-sorts; the ablation
// bench BenchmarkRingVsTree quantifies the difference.
type TreeRing struct {
	mu     sync.RWMutex
	cfg    Config
	root   *llrbNode
	size   int
	member map[NodeID]struct{}
}

type llrbNode struct {
	hash        uint64
	node        NodeID
	left, right *llrbNode
	red         bool
}

// NewTree creates an empty TreeRing. A non-positive VirtualNodes falls
// back to DefaultVirtualNodes.
func NewTree(cfg Config) *TreeRing {
	if cfg.VirtualNodes <= 0 {
		cfg.VirtualNodes = DefaultVirtualNodes
	}
	return &TreeRing{cfg: cfg, member: make(map[NodeID]struct{})}
}

// NewTreeWithNodes creates a TreeRing pre-populated with nodes.
func NewTreeWithNodes(cfg Config, nodes []NodeID) *TreeRing {
	t := NewTree(cfg)
	for _, n := range nodes {
		t.Add(n)
	}
	return t
}

func pointLess(h1 uint64, n1 NodeID, h2 uint64, n2 NodeID) bool {
	if h1 != h2 {
		return h1 < h2
	}
	return n1 < n2
}

func isRed(n *llrbNode) bool { return n != nil && n.red }

func rotateLeft(h *llrbNode) *llrbNode {
	x := h.right
	h.right = x.left
	x.left = h
	x.red = h.red
	h.red = true
	return x
}

func rotateRight(h *llrbNode) *llrbNode {
	x := h.left
	h.left = x.right
	x.right = h
	x.red = h.red
	h.red = true
	return x
}

func colorFlip(h *llrbNode) {
	h.red = !h.red
	if h.left != nil {
		h.left.red = !h.left.red
	}
	if h.right != nil {
		h.right.red = !h.right.red
	}
}

func fixUp(h *llrbNode) *llrbNode {
	if isRed(h.right) && !isRed(h.left) {
		h = rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		colorFlip(h)
	}
	return h
}

func insert(h *llrbNode, hash uint64, node NodeID) *llrbNode {
	if h == nil {
		return &llrbNode{hash: hash, node: node, red: true}
	}
	switch {
	case pointLess(hash, node, h.hash, h.node):
		h.left = insert(h.left, hash, node)
	case pointLess(h.hash, h.node, hash, node):
		h.right = insert(h.right, hash, node)
	default:
		// duplicate point — keep one copy
	}
	return fixUp(h)
}

func moveRedLeft(h *llrbNode) *llrbNode {
	colorFlip(h)
	if h.right != nil && isRed(h.right.left) {
		h.right = rotateRight(h.right)
		h = rotateLeft(h)
		colorFlip(h)
	}
	return h
}

func moveRedRight(h *llrbNode) *llrbNode {
	colorFlip(h)
	if h.left != nil && isRed(h.left.left) {
		h = rotateRight(h)
		colorFlip(h)
	}
	return h
}

func minNode(h *llrbNode) *llrbNode {
	for h.left != nil {
		h = h.left
	}
	return h
}

func deleteMin(h *llrbNode) *llrbNode {
	if h.left == nil {
		return nil
	}
	if !isRed(h.left) && !isRed(h.left.left) {
		h = moveRedLeft(h)
	}
	h.left = deleteMin(h.left)
	return fixUp(h)
}

func deleteNode(h *llrbNode, hash uint64, node NodeID) *llrbNode {
	if h == nil {
		return nil
	}
	if pointLess(hash, node, h.hash, h.node) {
		if h.left != nil {
			if !isRed(h.left) && !isRed(h.left.left) {
				h = moveRedLeft(h)
			}
			h.left = deleteNode(h.left, hash, node)
		}
	} else {
		if isRed(h.left) {
			h = rotateRight(h)
		}
		if h.hash == hash && h.node == node && h.right == nil {
			return nil
		}
		if h.right != nil {
			if !isRed(h.right) && !isRed(h.right.left) {
				h = moveRedRight(h)
			}
			if h.hash == hash && h.node == node {
				m := minNode(h.right)
				h.hash, h.node = m.hash, m.node
				h.right = deleteMin(h.right)
			} else {
				h.right = deleteNode(h.right, hash, node)
			}
		}
	}
	return fixUp(h)
}

// successor returns the first tree point with position >= hash
// (lower_bound), or nil when no such point exists.
func successor(h *llrbNode, hash uint64) *llrbNode {
	var best *llrbNode
	for h != nil {
		if h.hash >= hash {
			best = h
			h = h.left
		} else {
			h = h.right
		}
	}
	return best
}

// KeyHash returns the position of key on the ring.
func (t *TreeRing) KeyHash(key string) uint64 {
	return keyHash(key)
}

// Add inserts node with its virtual points; adding a member is a no-op.
func (t *TreeRing) Add(node NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.member[node]; ok {
		return
	}
	t.member[node] = struct{}{}
	for _, h := range pointsFor(node, t.cfg.VirtualNodes) {
		t.root = insert(t.root, h, node)
		t.root.red = false
		t.size++
	}
}

// Remove deletes node and its virtual points; removing a non-member is a
// no-op.
func (t *TreeRing) Remove(node NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.member[node]; !ok {
		return
	}
	delete(t.member, node)
	for _, h := range pointsFor(node, t.cfg.VirtualNodes) {
		t.root = deleteNode(t.root, h, node)
		if t.root != nil {
			t.root.red = false
		}
		t.size--
	}
}

// Owner returns the node owning key; ok=false on an empty ring.
func (t *TreeRing) Owner(key string) (NodeID, bool) {
	h := keyHash(key)
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == nil {
		return "", false
	}
	n := successor(t.root, h)
	if n == nil {
		n = minNode(t.root) // wrap around the ring
	}
	return n.node, true
}

// Nodes returns the physical members in unspecified order.
func (t *TreeRing) Nodes() []NodeID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]NodeID, 0, len(t.member))
	for n := range t.member {
		out = append(out, n)
	}
	return out
}

// Len returns the number of physical members.
func (t *TreeRing) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.member)
}

// PointCount returns the number of virtual points in the tree.
func (t *TreeRing) PointCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

var (
	_ Locator = (*Ring)(nil)
	_ Locator = (*TreeRing)(nil)
)
