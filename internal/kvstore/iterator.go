package kvstore

import (
	"bytes"
	"slices"
)

// Iterator walks live keys in ascending order as of its creation: it holds
// its own sorted copy of the live set from its start key on, so writes and
// checkpoints that land while it is walked stay hidden from it. Key and
// Value must not be modified; they stay valid after the iterator moves on.
type Iterator struct {
	ents []entry // the entries not yet walked, the current one first
}

type entry struct{ key, val []byte }

// NewIteratorFrom returns an iterator positioned at the first live key >=
// start, as of the call. Durability layers that keep sequenced logs
// under ordered keys (the shard op log) use it to read from a cursor
// without walking the keyspace below it.
func (db *DB) NewIteratorFrom(start []byte) *Iterator {
	db.mu.RLock()
	it := &Iterator{ents: make([]entry, 0, len(db.live))}
	for key, v := range db.live {
		if key >= string(start) {
			it.ents = append(it.ents, entry{key: []byte(key), val: v.val})
		}
	}
	db.mu.RUnlock()
	slices.SortFunc(it.ents, func(a, b entry) int { return bytes.Compare(a.key, b.key) })
	return it
}

// Next advances to the next live key.
func (it *Iterator) Next() {
	if it.Valid() {
		it.ents = it.ents[1:]
	}
}

// Valid reports whether the iterator is positioned at a live entry.
func (it *Iterator) Valid() bool { return len(it.ents) > 0 }

// Key returns the current key, or nil past the end.
func (it *Iterator) Key() []byte {
	if !it.Valid() {
		return nil
	}
	return it.ents[0].key
}

// Value returns the current value, or nil past the end.
func (it *Iterator) Value() []byte {
	if !it.Valid() {
		return nil
	}
	return it.ents[0].val
}
