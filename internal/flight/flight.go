// Package flight is the harness's one coalescing and retention
// primitive. A Group computes each key once however many callers ask
// for it at the same time, keeps what succeeded, and forgets what
// failed. The experiments runner keeps its cells and profiling passes
// in Groups; the serving layer keeps its reply bodies in one.
package flight

import (
	"context"
	"errors"
	"sync"
)

// Group coalesces and keeps values by key. Its rules:
//
//   - The first caller of a key (the creator) computes. Later callers
//     (waiters) share its outcome, or leave when their own context
//     ends.
//   - Successes are kept for the life of the Group, so what it holds
//     is bounded by its callers' key space.
//   - Failures are never kept.
//   - When the shared computation ends in a cancellation or an expired
//     deadline while the waiter's own context is still live, the error
//     is another caller's, not the waiter's: the waiter calls again, so
//     it joins a newer computation or becomes the creator itself.
//
// The zero value is ready to use. A Group is safe for concurrent use
// and must not be copied after first use.
type Group[V any] struct {
	mu   sync.Mutex
	m    map[string]*call[V] // in-flight and kept calls
	kept int
	hits int64
}

// call is one computation of a key. Its outcome is written before done
// closes; kept is set (under the Group's lock) once the value is kept.
type call[V any] struct {
	key  string
	done chan struct{}
	val  V
	err  error
	kept bool
}

// Stats is a Group's retention state.
type Stats struct {
	// Kept is the number of values kept now.
	Kept int
	// Hits counts answers served from a kept value.
	Hits int64
}

// errPanicked is what waiters get when the creator's fn panicked.
var errPanicked = errors.New("flight: computation panicked")

// Do returns key's value: a kept one, the outcome of the computation in
// flight, or, when there is neither, the outcome of fn run by this
// caller. A kept value is returned even if ctx has ended. joined, when
// non-nil, is called each time the caller takes a kept value or joins a
// computation it did not start, before it waits, so a counter can see a
// waiter that is still blocked.
func (g *Group[V]) Do(ctx context.Context, key string, joined func(), fn func() (V, error)) (V, error) {
	for {
		g.mu.Lock()
		c, ok := g.m[key]
		if !ok {
			if g.m == nil {
				g.m = make(map[string]*call[V])
			}
			c = &call[V]{key: key, done: make(chan struct{})}
			g.m[key] = c
			g.mu.Unlock()
			g.run(c, fn)
			return c.val, c.err
		}
		kept := c.kept
		if kept {
			g.hits++
		}
		g.mu.Unlock()
		if joined != nil {
			joined()
		}
		if kept {
			return c.val, nil
		}
		select {
		case <-c.done:
		case <-ctx.Done():
			select {
			case <-c.done: // finished as ctx ended: still an answer
			default:
				var zero V
				return zero, ctx.Err()
			}
		}
		if c.err != nil && canceled(c.err) && ctx.Err() == nil {
			continue
		}
		return c.val, c.err
	}
}

// run computes c as its creator, then publishes the outcome: a success
// is kept, and a failure leaves the Group so the next caller computes
// afresh. A panicking fn still releases its waiters, with errPanicked,
// before the panic goes on.
func (g *Group[V]) run(c *call[V], fn func() (V, error)) {
	c.err = errPanicked // overwritten unless fn panics
	defer func() {
		g.mu.Lock()
		if c.err == nil {
			c.kept = true
			g.kept++
		} else {
			delete(g.m, c.key)
		}
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
}

// Kept returns a snapshot of the kept values by key.
func (g *Group[V]) Kept() map[string]V {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]V, g.kept)
	for key, c := range g.m {
		if c.kept {
			out[key] = c.val
		}
	}
	return out
}

// Stats snapshots the retention counters.
func (g *Group[V]) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Stats{Kept: g.kept, Hits: g.hits}
}

// canceled reports whether err stems from a context cancellation or an
// expired deadline.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
