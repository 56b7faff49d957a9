package kvstore

// Iterator walks live user keys in ascending order as of its creation:
// versions written after it was made, and tombstones, are skipped. It reads
// the memtable under the DB's read lock one step at a time, so writers may
// run between steps; a Checkpoint swaps in a new memtable but leaves the
// iterator's own, which is never changed again, in place. Key and Value
// must not be modified; they stay valid after the iterator moves on.
type Iterator struct {
	db       *DB
	mem      *memtable
	seq      uint64    // snapshot: the newest version visible
	n        *skipNode // first node of the next user key to consider
	key, val []byte
	valid    bool
}

// NewIterator returns an iterator over all live keys as of the call: writes
// that land while it is being walked stay invisible to it.
func (db *DB) NewIterator() *Iterator { return db.NewIteratorFrom(nil) }

// NewIteratorFrom returns an iterator positioned at the first live key >=
// start, as of the call. Durability layers that keep sequenced logs
// under ordered keys (the shard op log, replication catch-up) use it to tail
// from a cursor without scanning the keyspace below it.
func (db *DB) NewIteratorFrom(start []byte) *Iterator {
	db.mu.RLock()
	defer db.mu.RUnlock()
	it := &Iterator{db: db, mem: db.mem, seq: db.seq}
	it.n = it.mem.seek(start)
	it.advance()
	return it
}

// advance moves to the first live key at or after it.n. The caller holds
// the read lock.
func (it *Iterator) advance() {
	for it.n != nil {
		var v *skipNode
		v, it.n = visible(it.n, it.seq)
		if v != nil && v.key.kind == kindValue {
			it.key, it.val, it.valid = v.key.user, v.val, true
			return
		}
	}
	it.key, it.val, it.valid = nil, nil, false
}

// Seek repositions the iterator at the first live key >= user.
func (it *Iterator) Seek(user []byte) {
	it.db.mu.RLock()
	defer it.db.mu.RUnlock()
	it.n = it.mem.seek(user)
	it.advance()
}

// Next advances to the next live user key.
func (it *Iterator) Next() {
	it.db.mu.RLock()
	defer it.db.mu.RUnlock()
	it.advance()
}

// Valid reports whether the iterator is positioned at a live entry.
func (it *Iterator) Valid() bool { return it.valid }

// Key returns the current user key.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value.
func (it *Iterator) Value() []byte { return it.val }
