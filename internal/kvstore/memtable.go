package kvstore

// memtable is an in-memory skiplist over internal keys. It is the mutable
// write buffer of the LSM tree; once it reaches the configured size it is
// frozen and flushed to an SSTable.
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
	size   int // approximate bytes of keys+values stored
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

// add inserts an entry. Internal keys are unique (the DB assigns a fresh
// sequence number per write) so no update-in-place is needed.
func (m *memtable) add(key []byte, seq uint64, kind entryKind, val []byte) {
	ik := internalKey{user: append([]byte(nil), key...), seq: seq, kind: kind}
	var v []byte
	if kind == kindValue {
		v = append([]byte(nil), val...)
	}
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
	n := &skipNode{key: ik, val: v}
	for lvl := 0; lvl < h; lvl++ {
		n.next[lvl] = prev[lvl].next[lvl]
		prev[lvl].next[lvl] = n
	}
	m.size += len(key) + len(val) + 24
	m.count++
}

// get returns the newest version of key. ok reports whether any version
// exists; deleted reports whether that version is a tombstone.
func (m *memtable) get(key []byte) (val []byte, deleted, ok bool) {
	n := m.seek(internalKey{user: key, seq: ^uint64(0), kind: kindValue})
	if n == nil || compareBytes(n.key.user, key) != 0 {
		return nil, false, false
	}
	if n.key.kind == kindDelete {
		return nil, true, true
	}
	return n.val, false, true
}

// seek returns the first node whose internal key is >= ik.
func (m *memtable) seek(ik internalKey) *skipNode {
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

// memIterator walks a memtable in internal-key order.
type memIterator struct {
	m *memtable
	n *skipNode
}

func (m *memtable) iterator() *memIterator { return &memIterator{m: m} }

func (it *memIterator) SeekToFirst() { it.n = it.m.first() }

func (it *memIterator) Seek(user []byte) {
	it.n = it.m.seek(internalKey{user: user, seq: ^uint64(0), kind: kindValue})
}

func (it *memIterator) Valid() bool { return it.n != nil }

func (it *memIterator) Next() { it.n = it.n.next[0] }

func (it *memIterator) Entry() (internalKey, []byte) { return it.n.key, it.n.val }
