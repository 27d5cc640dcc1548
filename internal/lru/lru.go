// Package lru is the engine's one least-recently-used list. The
// ingestion cache, the buffer pool, both result-cache tiers and the
// compiled-text memo each keep their entries in a List: a map from key
// to entry plus a recency list, where every entry carries a cost and
// the list a budget on their total.
//
// A List is not safe for concurrent use: each owner's mutex guards it.
package lru

// List maps keys to values in recency order. Evict keeps the total cost
// within the budget by dropping the least recently used entries, but
// never the last one: a single entry larger than the whole budget may
// stay alone.
type List[K comparable, V any] struct {
	budget int64
	cost   int64
	items  map[K]*node[K, V]
	root   node[K, V] // sentinel: root.next is the newest entry, root.prev the oldest
}

type node[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *node[K, V]
}

// New returns an empty list whose total cost Evict keeps within budget;
// budget <= 0 means unlimited.
func New[K comparable, V any](budget int64) *List[K, V] {
	l := &List[K, V]{budget: budget}
	l.Clear()
	return l
}

// Len returns the number of entries.
func (l *List[K, V]) Len() int { return len(l.items) }

// Cost returns the total cost of the entries.
func (l *List[K, V]) Cost() int64 { return l.cost }

// Get returns k's value and makes k the most recently used entry.
func (l *List[K, V]) Get(k K) (v V, ok bool) {
	n := l.items[k]
	if n == nil {
		return v, false
	}
	if l.root.next != n { // relinking the front entry only costs write barriers
		l.unlink(n)
		l.linkAfter(n, &l.root)
	}
	return n.val, true
}

// Peek returns k's value without changing its recency.
func (l *List[K, V]) Peek(k K) (v V, ok bool) {
	if n := l.items[k]; n != nil {
		return n.val, true
	}
	return v, false
}

// Put stores v at the given cost as the most recently used entry,
// replacing any value k held. It does not evict; call Evict.
func (l *List[K, V]) Put(k K, v V, cost int64) { l.put(k, v, cost, false) }

// PutOldest is Put, except that the entry becomes the least recently
// used one: a list rebuilt from a most-recent-first record appends each
// entry at the tail.
func (l *List[K, V]) PutOldest(k K, v V, cost int64) { l.put(k, v, cost, true) }

func (l *List[K, V]) put(k K, v V, cost int64, oldest bool) {
	l.Remove(k)
	n := &node[K, V]{key: k, val: v, cost: cost}
	l.items[k] = n
	l.cost += cost
	if oldest {
		l.linkAfter(n, l.root.prev)
	} else {
		l.linkAfter(n, &l.root)
	}
}

// Remove deletes k's entry and returns its value.
func (l *List[K, V]) Remove(k K) (v V, ok bool) {
	n := l.items[k]
	if n == nil {
		return v, false
	}
	l.drop(n)
	return n.val, true
}

// Oldest returns the least recently used entry.
func (l *List[K, V]) Oldest() (k K, v V, ok bool) {
	if n := l.root.prev; n != &l.root {
		return n.key, n.val, true
	}
	return k, v, false
}

// All calls fn for every entry, most recently used first. fn may Remove
// the entry it is given.
func (l *List[K, V]) All(fn func(K, V)) {
	for n := l.root.next; n != &l.root; {
		next := n.next
		fn(n.key, n.val)
		n = next
	}
}

// Clear removes every entry.
func (l *List[K, V]) Clear() {
	l.items = make(map[K]*node[K, V])
	l.root.prev, l.root.next = &l.root, &l.root
	l.cost = 0
}

// Evict drops the least recently used entries while the total cost is
// over the budget and more than one entry remains, handing each to fn
// (when non-nil) after it has left the list.
func (l *List[K, V]) Evict(fn func(K, V)) {
	for l.budget > 0 && l.cost > l.budget && len(l.items) > 1 {
		n := l.root.prev
		l.drop(n)
		if fn != nil {
			fn(n.key, n.val)
		}
	}
}

func (l *List[K, V]) drop(n *node[K, V]) {
	l.unlink(n)
	delete(l.items, n.key)
	l.cost -= n.cost
}

func (l *List[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (l *List[K, V]) linkAfter(n, at *node[K, V]) {
	n.prev, n.next = at, at.next
	at.next.prev = n
	at.next = n
}
