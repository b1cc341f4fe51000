package evalserve

import (
	"bytes"
	"container/list"
	"sync"

	"tensorkmc/internal/telemetry"
)

// CacheStats is one shard's counter snapshot.
type CacheStats struct {
	Hits       int64 // lookups answered from the shard
	Misses     int64 // lookups that fell through to evaluation
	Evictions  int64 // entries displaced by the LRU policy
	Collisions int64 // hash matches vetoed by the full-environment compare
	Entries    int   // current resident entries
}

// add accumulates o into s (for aggregate reporting).
func (s *CacheStats) add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Collisions += o.Collisions
	s.Entries += o.Entries
}

// entry is one cached vacancy system: its packed environment
// (encoding.PackEnv, the collision check) and the exact f64 evaluation
// outputs.
type entry struct {
	hash uint64
	key  []byte
	res  Result
	elem *list.Element
}

// cacheShard is an independently locked LRU over one slice of the hash
// space. Buckets are per-hash entry lists so genuine 64-bit collisions
// coexist instead of clobbering each other.
type cacheShard struct {
	mu      sync.Mutex
	cap     int
	buckets map[uint64][]*entry
	lru     *list.List // front = most recent; values are *entry
	stats   CacheStats
	journal *telemetry.Journal // nil when telemetry is off
}

// evictionSampleEvery rate-limits eviction flight-recorder events: cache
// churn under a tight capacity can evict on every insert, and recording
// each one would flush the interesting failure-path events out of the
// bounded ring. One event per this many evictions per shard keeps the
// churn visible without drowning the tail.
const evictionSampleEvery = 256

// cacheShards is the server cache's shard count. 1, 8 and 32 shards
// measured in one band at eight concurrent callers (DESIGN.md §10.4).
const cacheShards = 8

// Cache is the sharded, content-addressed vacancy-system cache: the
// paper's vacancy cache (Sec. 3.2) generalized across vacancies and
// across engines. Entries are filed under the hash of the VET's packed
// environment (encoding.KeyHash of encoding.PackEnv's four sites per
// byte) and hold that packed environment; every hit compares the whole
// packed environment so a hash collision can never substitute a wrong
// energy (the bit-identity contract).
type Cache struct {
	shards []*cacheShard
	mask   uint64
}

// NewCache builds a cache holding up to capacity entries total, split
// over the given number of shards (rounded up to a power of two).
func NewCache(capacity, shards int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	c := &Cache{shards: make([]*cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:     perShard,
			buckets: make(map[uint64][]*entry),
			lru:     list.New(),
		}
	}
	return c
}

// shardFor routes a fingerprint to its shard. The top bits select the
// shard so the bucket map keys (full hashes) stay well distributed
// within each shard.
func (c *Cache) shardFor(hash uint64) *cacheShard {
	return c.shards[(hash>>48)&c.mask]
}

// Get returns the cached result for the vacancy system whose packed
// environment is key and hash its encoding.KeyHash, comparing the stored key
// byte-for-byte before trusting the hash. It keeps no reference to key.
func (c *Cache) Get(hash uint64, key []byte) (Result, bool) {
	return c.lookup(hash, key, true)
}

// peek is Get without hit/miss accounting — the server's second-chance
// check uses it so one client request never counts as two lookups.
// Collisions are still counted (they are a property of the store, not of
// request traffic).
func (c *Cache) peek(hash uint64, key []byte) (Result, bool) {
	return c.lookup(hash, key, false)
}

func (c *Cache) lookup(hash uint64, key []byte, record bool) (Result, bool) {
	s := c.shardFor(hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.buckets[hash] {
		if bytes.Equal(e.key, key) {
			s.lru.MoveToFront(e.elem)
			if record {
				s.stats.Hits++
			}
			return e.res, true
		}
		s.stats.Collisions++
	}
	if record {
		s.stats.Misses++
	}
	return Result{}, false
}

// Put inserts an evaluated system. key must be the packed environment of
// the evaluated VET, and the cache keeps it: the caller must not modify
// it afterwards; res holds the exact f64 outputs. Re-inserting an
// existing environment refreshes its recency and overwrites the entry.
func (c *Cache) Put(hash uint64, key []byte, res Result) {
	s := c.shardFor(hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.buckets[hash] {
		if bytes.Equal(e.key, key) {
			e.res = res
			s.lru.MoveToFront(e.elem)
			return
		}
	}
	e := &entry{hash: hash, key: key, res: res}
	e.elem = s.lru.PushFront(e)
	s.buckets[hash] = append(s.buckets[hash], e)
	for s.lru.Len() > s.cap {
		s.evictOldest()
	}
}

// evictOldest drops the least-recently-used entry (shard lock held).
func (s *cacheShard) evictOldest() {
	back := s.lru.Back()
	if back == nil {
		return
	}
	victim := back.Value.(*entry)
	s.lru.Remove(back)
	bucket := s.buckets[victim.hash]
	for i, e := range bucket {
		if e == victim {
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(s.buckets, victim.hash)
	} else {
		s.buckets[victim.hash] = bucket
	}
	s.stats.Evictions++
	if s.stats.Evictions%evictionSampleEvery == 1 {
		// Journal recording takes only the journal's own lock, never a
		// shard lock, so holding s.mu here cannot deadlock.
		s.journal.Record("cache-evict",
			"shard evicted entry %x (%d evictions so far, %d resident)",
			victim.hash, s.stats.Evictions, s.lru.Len())
	}
}

// setJournal hands every shard the flight recorder for sampled eviction
// events. Call before the cache is shared across goroutines.
func (c *Cache) setJournal(j *telemetry.Journal) {
	for _, s := range c.shards {
		s.journal = j
	}
}

// Stats snapshots every shard's counters, in shard order.
//
// Consistency model: each shard's snapshot is taken under that shard's
// lock, so every CacheStats element is internally consistent (its Hits,
// Misses, Evictions, Collisions and Entries all come from one instant).
// Shards are visited one after another, though, so the cross-shard
// aggregate is NOT a point-in-time cut of the whole cache — lookups
// landing on shard 7 while shard 0 is being read appear in one snapshot
// and not the other. Totals are therefore approximate while traffic is
// in flight and exact once the server has quiesced (e.g. after Close).
// The telemetry registry's cache metrics are function-backed reads of
// these same shard counters, so /metrics inherits — and can never
// disagree with — this model.
func (c *Cache) Stats() []CacheStats {
	out := make([]CacheStats, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		st := s.stats
		st.Entries = s.lru.Len()
		s.mu.Unlock()
		out[i] = st
	}
	return out
}
