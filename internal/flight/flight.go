// Package flight is the one singleflight primitive of the serving stack:
// a computation one caller owns and any number of others wait on, every
// one of them observing the same outcome. The store uses a bare Call per
// catalog entry to share a first decode (its error included); the
// coordinator uses a Group to share one shard round trip among identical
// queries from concurrent requests.
package flight

import (
	"context"
	"sync"
)

// Call is one in-progress computation. The owner publishes its outcome
// with Finish exactly once; the channel close orders that write before
// every waiter's read.
type Call[V any] struct {
	done chan struct{}
	val  V
}

// New returns an unfinished Call.
func New[V any]() *Call[V] { return &Call[V]{done: make(chan struct{})} }

// Finish publishes v to every current and future waiter.
func (c *Call[V]) Finish(v V) {
	c.val = v
	close(c.done)
}

// Wait blocks until the Call finishes or ctx is done. A finished Call
// always wins over a done ctx, so an owner reading its own outcome never
// sees a spurious cancellation.
func (c *Call[V]) Wait(ctx context.Context) (V, error) {
	select {
	case <-c.done:
		return c.val, nil
	default:
	}
	select {
	case <-c.done:
		return c.val, nil
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// Group deduplicates concurrent computations by key. Keys are retired on
// Finish, so the map only holds keys with work actually in progress.
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*Call[V]
}

// Begin returns the Call for key and whether the caller owns it. The
// owner must call Finish exactly once; everyone else waits on the Call.
func (g *Group[V]) Begin(key string) (c *Call[V], owner bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c, false
	}
	if g.m == nil {
		g.m = make(map[string]*Call[V])
	}
	c = New[V]()
	g.m[key] = c
	return c, true
}

// Finish publishes v on an owned Call and retires its key. Only the
// caller's own Call is removed: a slow Finish must not retire a newer
// Call another owner already began under the same key.
func (g *Group[V]) Finish(key string, c *Call[V], v V) {
	c.Finish(v)
	g.mu.Lock()
	if g.m[key] == c {
		delete(g.m, key)
	}
	g.mu.Unlock()
}
