package kvstore

// memtable is an in-memory skiplist over internal keys. It holds the whole
// store: the checkpoint image's live set plus every version written since,
// until the next Checkpoint rebuilds it from the live versions alone.
//
// Nodes are only ever linked in, under the DB's write lock: none is
// unlinked and no key or value changes, so a reader holding the read lock
// sees a consistent list, and a node keeps its place for as long as anyone
// holds it.
//
// The skiplist uses a deterministic per-table PRNG for level assignment so
// the engine behaves identically across runs.

const (
	maxHeight = 12
	branching = 4
)

type skipNode struct {
	key  internalKey
	val  []byte
	next [maxHeight]*skipNode
}

type memtable struct {
	head   *skipNode
	height int
	count  int
	rnd    uint64
}

func newMemtable() *memtable {
	return &memtable{head: &skipNode{}, height: 1, rnd: 0xDEADBEEFCAFEF00D}
}

func (m *memtable) randomHeight() int {
	h := 1
	for h < maxHeight {
		// xorshift step
		m.rnd ^= m.rnd << 13
		m.rnd ^= m.rnd >> 7
		m.rnd ^= m.rnd << 17
		if m.rnd%branching != 0 {
			break
		}
		h++
	}
	return h
}

// add links in an entry. It keeps key and val, which the caller must never
// change afterwards. Internal keys are unique (the DB assigns a fresh
// sequence number per write) so no update-in-place is needed.
func (m *memtable) add(key []byte, seq uint64, kind entryKind, val []byte) {
	ik := internalKey{user: key, seq: seq, kind: kind}
	var prev [maxHeight]*skipNode
	x := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && compareInternal(x.next[lvl].key, ik) < 0 {
			x = x.next[lvl]
		}
		prev[lvl] = x
	}
	h := m.randomHeight()
	if h > m.height {
		for lvl := m.height; lvl < h; lvl++ {
			prev[lvl] = m.head
		}
		m.height = h
	}
	n := &skipNode{key: ik}
	if kind == kindValue {
		n.val = val
	}
	for lvl := 0; lvl < h; lvl++ {
		n.next[lvl] = prev[lvl].next[lvl]
		prev[lvl].next[lvl] = n
	}
	m.count++
}

// seek returns the first node of the first user key >= user: its newest
// version.
func (m *memtable) seek(user []byte) *skipNode {
	ik := internalKey{user: user, seq: ^uint64(0)}
	x := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && compareInternal(x.next[lvl].key, ik) < 0 {
			x = x.next[lvl]
		}
	}
	return x.next[0]
}

// first returns the first node, or nil if empty.
func (m *memtable) first() *skipNode { return m.head.next[0] }

// visible returns the newest version of n's user key at or below seq,
// starting at n, and the first node of the next user key. v is nil when
// every version from n on is newer than seq.
func visible(n *skipNode, seq uint64) (v, next *skipNode) {
	for next = n; next != nil && string(next.key.user) == string(n.key.user); next = next.next[0] {
		if v == nil && next.key.seq <= seq {
			v = next
		}
	}
	return v, next
}
