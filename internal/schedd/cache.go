package schedd

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"reassign/internal/randsrc"
	"reassign/internal/rl"
)

// lru is the daemon's one bounded cache: a mutex-guarded map with
// least-recently-used eviction beyond maxEntries, and hit/miss
// counters for /metrics. It backs the warm Q-table cache and the
// workflow and fleet intern tables. Values are handed out as stored —
// what a caller may do with one is the wrapping type's contract.
type lru[K comparable, V any] struct {
	mu         sync.Mutex
	entries    map[K]V
	order      []K // LRU order, oldest first
	maxEntries int

	hits   atomic.Int64
	misses atomic.Int64
}

func newLRU[K comparable, V any](maxEntries int) *lru[K, V] {
	return &lru[K, V]{
		entries:    make(map[K]V),
		maxEntries: maxEntries,
	}
}

// get returns the value stored under key, marking it most recently
// used, and counts the lookup as a hit or a miss.
func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	v, ok := c.entries[key]
	if ok {
		c.touchLocked(key)
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// put stores v under key as the most recently used entry, evicting
// the least recently used one when a new key would exceed the bound.
func (c *lru[K, V]) put(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok && len(c.entries) >= c.maxEntries {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[key] = v
	c.touchLocked(key)
}

// touchLocked moves key to the most-recently-used end.
func (c *lru[K, V]) touchLocked(key K) {
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.order = append(c.order, key)
}

func (c *lru[K, V]) stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// tableCache is the daemon's warm Q-table store: learned tables keyed
// by workflow-structure signature (api.StructureSignature), so a
// submission whose workflow and fleet match an earlier job's
// continues learning from that job's table instead of random
// initialisation — the paper's provenance-backed cross-execution
// learning, applied across HTTP requests.
//
// get hands out a deep copy (learners mutate tables in place, and two
// in-flight jobs may hit the same entry); put stores the finished
// job's table directly. The cache is bounded: beyond maxEntries the
// least-recently-used signature is evicted.
type tableCache struct {
	*lru[string, *rl.Table]
}

func newTableCache(maxEntries int) tableCache {
	return tableCache{newLRU[string, *rl.Table](maxEntries)}
}

// get returns a private copy of the cached table for sig, or nil on a
// miss. seed drives materialisation of entries the copy touches later
// (rl.Table.Copy), keeping warm-started runs deterministic per
// (cache state, seed).
func (c tableCache) get(sig string, seed int64) *rl.Table {
	t, ok := c.lru.get(sig)
	if !ok {
		return nil
	}
	return t.Copy(rand.New(randsrc.New(seed)))
}

// put stores a finished job's table for sig. The caller must be done
// with the table — it is served (as copies) to future gets.
func (c tableCache) put(sig string, t *rl.Table) {
	if t != nil {
		c.lru.put(sig, t)
	}
}
