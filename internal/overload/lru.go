package overload

import (
	"container/list"
	"sync"
)

// lruEntry is one cached value with its byte accounting.
type lruEntry struct {
	key   string
	value any
	size  int64
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
	order   *list.List // front = most recent
	items   map[string]*list.Element
	onEvict func(key string, value any, size int64)
}

// NewByteLRU builds a cache capped at max bytes (minimum 1).
func NewByteLRU(max int64) *ByteLRU {
	if max < 1 {
		max = 1
	}
	return &ByteLRU{max: max, order: list.New(), items: make(map[string]*list.Element)}
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

func (l *ByteLRU) promoteLocked(e *list.Element) (any, bool) {
	if e == nil {
		return nil, false
	}
	l.order.MoveToFront(e)
	return e.Value.(*lruEntry).value, true
}

// Peek returns the cached value without promoting it.
func (l *ByteLRU) Peek(key string) (any, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.items[key]; ok {
		return e.Value.(*lruEntry).value, true
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
		old := e.Value.(*lruEntry)
		l.size += size - old.size
		old.value, old.size = value, size
		l.order.MoveToFront(e)
	} else {
		e := l.order.PushFront(&lruEntry{key: key, value: value, size: size})
		l.items[key] = e
		l.size += size
	}
	var evicted []*lruEntry
	for l.size > l.max && l.order.Len() > 0 {
		back := l.order.Back()
		ent := back.Value.(*lruEntry)
		l.order.Remove(back)
		delete(l.items, ent.key)
		l.size -= ent.size
		evicted = append(evicted, ent)
	}
	cb := l.onEvict
	l.mu.Unlock()
	if cb != nil {
		for _, ent := range evicted {
			cb(ent.key, ent.value, ent.size)
		}
	}
	return len(evicted)
}

// Remove deletes key without firing the eviction callback (the caller
// chose the removal and can do its own cleanup).
func (l *ByteLRU) Remove(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.items[key]
	if !ok {
		return false
	}
	ent := e.Value.(*lruEntry)
	l.order.Remove(e)
	delete(l.items, key)
	l.size -= ent.size
	return true
}

// Each visits every entry from most- to least-recently used without
// promoting anything. The snapshot is taken under the lock and fn runs
// outside it, so fn may call back into the cache; entries added or
// removed after Each begins may or may not be reflected.
func (l *ByteLRU) Each(fn func(key string, value any, size int64)) {
	l.mu.Lock()
	snap := make([]lruEntry, 0, l.order.Len())
	for e := l.order.Front(); e != nil; e = e.Next() {
		snap = append(snap, *e.Value.(*lruEntry))
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
	return l.order.Len()
}

// Bytes returns the current total size.
func (l *ByteLRU) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}
