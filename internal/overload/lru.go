package overload

import "sync"

// lruEntry is one cached value with its byte accounting, linked into the
// cache's recency list in place: an insert allocates this and nothing
// else, and an insert after an eviction not even this.
type lruEntry struct {
	key        string
	value      any
	size       int64
	prev, next *lruEntry
}

// A ByteLRU is a byte-capped least-recently-used cache. Eviction is
// by total byte size, not entry count, so one hot page with large
// generated assets cannot starve the server's memory. The eviction
// callback runs outside the cache lock (callers may take their own
// locks in it), which is why Add collects evictions first and fires
// them after unlocking.
type ByteLRU struct {
	mu      sync.Mutex
	max     int64
	size    int64
	root    lruEntry // sentinel: root.next is the most recent, root.prev the least
	items   map[string]*lruEntry
	onEvict func(key string, value any, size int64)
	spare   *lruEntry // the last entry evicted, cleared, for the next insert
}

// NewByteLRU builds a cache capped at max bytes (minimum 1).
func NewByteLRU(max int64) *ByteLRU {
	if max < 1 {
		max = 1
	}
	l := &ByteLRU{max: max, items: make(map[string]*lruEntry)}
	l.root.prev, l.root.next = &l.root, &l.root
	return l
}

// SetOnEvict installs the eviction callback. It must be set before
// concurrent use.
func (l *ByteLRU) SetOnEvict(fn func(key string, value any, size int64)) { l.onEvict = fn }

// Get returns the cached value and promotes it to most-recent.
func (l *ByteLRU) Get(key string) (any, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.promoteLocked(l.items[key])
}

// GetBytes is Get for a key held as bytes. The lookup builds no string:
// the compiler indexes the map with the bytes in place.
func (l *ByteLRU) GetBytes(key []byte) (any, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.promoteLocked(l.items[string(key)])
}

func (l *ByteLRU) promoteLocked(e *lruEntry) (any, bool) {
	if e == nil {
		return nil, false
	}
	l.moveToFrontLocked(e)
	return e.value, true
}

func (l *ByteLRU) moveToFrontLocked(e *lruEntry) {
	if l.root.next != e {
		l.unlinkLocked(e)
		l.pushFrontLocked(e)
	}
}

func (l *ByteLRU) pushFrontLocked(e *lruEntry) {
	e.prev, e.next = &l.root, l.root.next
	e.next.prev = e
	l.root.next = e
}

func (l *ByteLRU) unlinkLocked(e *lruEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// Peek returns the cached value without promoting it.
func (l *ByteLRU) Peek(key string) (any, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.items[key]; ok {
		return e.value, true
	}
	return nil, false
}

// Add inserts or replaces key, then evicts least-recent entries until
// the cache fits its cap again. An entry larger than the whole cap is
// admitted and immediately evicted (the callback still fires), so the
// cap holds regardless of entry sizes. Returns the number of entries
// evicted.
func (l *ByteLRU) Add(key string, value any, size int64) int {
	l.mu.Lock()
	if e, ok := l.items[key]; ok {
		l.size += size - e.size
		e.value, e.size = value, size
		l.moveToFrontLocked(e)
	} else {
		e := l.spare
		if e == nil {
			e = new(lruEntry)
		}
		l.spare = nil
		e.key, e.value, e.size = key, value, size
		l.pushFrontLocked(e)
		l.items[key] = e
		l.size += size
	}
	// Evicted entries are chained through next, oldest first, once
	// unlinked: collecting them builds nothing.
	var evicted, last *lruEntry
	count := 0
	for l.size > l.max && len(l.items) > 0 {
		back := l.root.prev
		l.unlinkLocked(back)
		delete(l.items, back.key)
		l.size -= back.size
		if last == nil {
			evicted = back
		} else {
			last.next = back
		}
		last = back
		count++
	}
	cb := l.onEvict
	l.mu.Unlock()
	if cb != nil {
		for ent := evicted; ent != nil; ent = ent.next {
			cb(ent.key, ent.value, ent.size)
		}
	}
	if last != nil {
		// Nothing else holds an evicted entry, and the callback is done
		// with it: cleared, so that it keeps nothing alive, it is the
		// next insert's.
		*last = lruEntry{}
		l.mu.Lock()
		l.spare = last
		l.mu.Unlock()
	}
	return count
}

// Remove deletes key without firing the eviction callback (the caller
// chose the removal and can do its own cleanup).
func (l *ByteLRU) Remove(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.removeLocked(l.items[key])
}

// RemoveBytes is Remove for a key held as bytes; like GetBytes it
// builds no string.
func (l *ByteLRU) RemoveBytes(key []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.removeLocked(l.items[string(key)])
}

func (l *ByteLRU) removeLocked(e *lruEntry) bool {
	if e == nil {
		return false
	}
	l.unlinkLocked(e)
	delete(l.items, e.key)
	l.size -= e.size
	return true
}

// Each visits every entry from most- to least-recently used without
// promoting anything. The snapshot is taken under the lock and fn runs
// outside it, so fn may call back into the cache; entries added or
// removed after Each begins may or may not be reflected.
func (l *ByteLRU) Each(fn func(key string, value any, size int64)) {
	l.mu.Lock()
	snap := make([]lruEntry, 0, len(l.items))
	for e := l.root.next; e != &l.root; e = e.next {
		snap = append(snap, lruEntry{key: e.key, value: e.value, size: e.size})
	}
	l.mu.Unlock()
	for _, ent := range snap {
		fn(ent.key, ent.value, ent.size)
	}
}

// Len returns the entry count.
func (l *ByteLRU) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

// Bytes returns the current total size.
func (l *ByteLRU) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}
