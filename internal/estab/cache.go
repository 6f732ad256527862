package estab

import (
	"sync"
	"time"
)

// DefaultCacheTTL is the lifetime of a connectivity-cache entry when the
// cache is created with a non-positive TTL. Connectivity between two
// fixed endpoints changes on administrative timescales (a firewall
// reconfigured, a proxy deployed), so minutes of memory are safe; the
// TTL exists so a stale winner can never pin a pair to a worse method
// forever.
const DefaultCacheTTL = 5 * time.Minute

// cacheEntry is one remembered race outcome.
type cacheEntry struct {
	method Method
	expiry time.Time
}

// Cache is the per-pair connectivity cache: it remembers which
// establishment method last won the race to a peer, so a reconnect can
// skip the race and run the winner alone. Entries expire after the TTL
// and are invalidated when the remembered method fails (the caller then
// falls back to a full race). A remembered method that the two live
// profiles no longer allow is not the cache's business: the initiator
// uses an entry only when its method is among the current candidates.
//
// The cache also deduplicates concurrent races: when several
// establishments to the same peer run at once (a parallel-streams driver
// stack brokers all its sub-links concurrently), one of them races and
// the rest wait for its verdict. A Cache is safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	ttl      time.Duration
	now      func() time.Time // test hook
	entries  map[string]cacheEntry
	inflight map[string]chan struct{}
}

// NewCache creates a connectivity cache. A non-positive ttl selects
// DefaultCacheTTL.
func NewCache(ttl time.Duration) *Cache {
	if ttl <= 0 {
		ttl = DefaultCacheTTL
	}
	return &Cache{
		ttl:      ttl,
		now:      time.Now,
		entries:  make(map[string]cacheEntry),
		inflight: make(map[string]chan struct{}),
	}
}

// Lookup returns the remembered winning method for a peer, if the entry
// is fresh.
func (c *Cache) Lookup(peer string) (Method, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[peer]
	if !ok {
		return MethodNone, false
	}
	if c.now().After(e.expiry) {
		delete(c.entries, peer)
		return MethodNone, false
	}
	return e.method, true
}

// Store remembers the winning method for a peer.
func (c *Cache) Store(peer string, m Method) {
	if m == MethodNone {
		return
	}
	c.mu.Lock()
	c.entries[peer] = cacheEntry{method: m, expiry: c.now().Add(c.ttl)}
	c.mu.Unlock()
}

// Invalidate forgets the entry for a peer (its remembered method failed).
func (c *Cache) Invalidate(peer string) {
	c.mu.Lock()
	delete(c.entries, peer)
	c.mu.Unlock()
}

// Len reports the number of live entries (expired ones included until
// their next lookup).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// beginRace claims the in-flight race slot for a peer. The first caller
// becomes the leader (and must call endRace when its establishment
// settles); later callers get leader == false and a channel that closes
// when the leader is done, after which they should re-consult the cache.
func (c *Cache) beginRace(peer string) (leader bool, wait <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ch, ok := c.inflight[peer]; ok {
		return false, ch
	}
	ch := make(chan struct{})
	c.inflight[peer] = ch
	return true, ch
}

// endRace releases the in-flight slot claimed by beginRace and wakes the
// followers.
func (c *Cache) endRace(peer string) {
	c.mu.Lock()
	ch := c.inflight[peer]
	delete(c.inflight, peer)
	c.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}
