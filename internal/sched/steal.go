package sched

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// StealPool is the intra-query counterpart of Pool: where Pool fans a
// fixed list of independent jobs across workers, StealPool runs one
// dynamically-growing exploration — each processed item may push new
// items — across per-worker deques with work stealing.
//
// Each worker owns a deque: it pushes and pops at the tail (LIFO, so a
// worker's traversal stays depth-first and cache-warm) and thieves
// steal half of a victim's items from the head (the oldest, shallowest
// entries, which tend to root the largest unexplored subtrees). A
// one-worker pool is therefore a plain depth-first search, run on the
// caller's goroutine: a callback that pushes its children (and the
// caller its roots) in reverse has them popped in order. The
// victim scan order is drawn from a per-worker seeded RNG, so a test
// harness can perturb steal schedules deterministically by varying the
// seed (the partest fuzz mode hunts order-dependence this way).
//
// Inflight work is bounded by the worker count — items wait in deques,
// not in goroutines — and termination is detected by a global pending
// counter covering queued and in-process items. A panic in the expand
// callback is captured as a *PanicError, the group is cancelled, and
// Run returns the error: a crashing worker surfaces as a failure, not
// a hang.
type StealPool[T any] struct {
	workers int
	seed    int64
}

// NewSteal returns a work-stealing pool of the given width; workers
// <= 0 selects runtime.NumCPU(). seed selects the steal-order RNG
// stream (any value; equal seeds give equal victim scan orders).
func NewSteal[T any](workers int, seed int64) *StealPool[T] {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &StealPool[T]{workers: workers, seed: seed}
}

// Workers returns the pool width.
func (p *StealPool[T]) Workers() int { return p.workers }

// stealRun is the shared state of one Run call.
type stealRun[T any] struct {
	deques  []stealDeque[T]
	pending atomic.Int64 // queued + in-process items
	done    chan struct{}
	doneOne sync.Once

	errMu sync.Mutex
	err   error // first expand error or captured panic
}

// stealDeque is one worker's deque. A mutex per deque (rather than a
// lock-free deque) keeps the code obviously correct; the lock is
// uncontended except while being stolen from, and one lock/unlock pair
// per state is noise against the cost of expanding a state.
type stealDeque[T any] struct {
	mu    sync.Mutex
	items []T
}

// Pending reports queued plus in-process items — the live frontier
// size, polled by the engines' telemetry flushes.
func (r *stealRun[T]) Pending() int64 { return r.pending.Load() }

// Frontier is the handle Run passes to the expand callback for
// telemetry: the live pending count of the exploration.
type Frontier interface {
	Pending() int64
}

// idleSleepMax caps the idle backoff of a worker that finds nothing to
// steal. Long enough to keep idle spinning cheap, short enough that
// wake-up latency is invisible next to per-state costs.
const idleSleepMax = time.Millisecond

// Run explores from the roots: each item is passed exactly once to
// expand, which may push follow-up items onto the calling worker's
// deque. Run blocks until every item has been processed (returns nil),
// the context is cancelled (returns ctx.Err()), expand returns an
// error, or a worker panics (returns the *PanicError) — in the latter
// three cases remaining items are abandoned and all workers join
// before Run returns. The worker index passed to expand identifies the
// executing worker (0-based), for worker-local scratch state. Run owns
// roots: a one-worker pool pops and pushes in its backing array.
func (p *StealPool[T]) Run(ctx context.Context, roots []T, expand func(ctx context.Context, worker int, item T, push func(T), f Frontier) error) error {
	if len(roots) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()

	r := &stealRun[T]{
		deques: make([]stealDeque[T], p.workers),
		done:   make(chan struct{}),
	}
	r.pending.Store(int64(len(roots)))
	// Size every deque for its share once: a resumed search hands over
	// a whole level of roots. One worker's deque is roots itself.
	if p.workers == 1 {
		r.deques[0].items = roots
	} else {
		for i := range r.deques {
			r.deques[i].items = make([]T, 0, (len(roots)+p.workers-1)/p.workers)
		}
		for i, root := range roots {
			d := &r.deques[i%p.workers]
			d.items = append(d.items, root)
		}
	}

	// Worker 0 runs on the calling goroutine: a one-worker pool starts
	// no goroutine at all.
	var wg sync.WaitGroup
	for w := 1; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p.worker(gctx, cancel, r, w, expand)
		}(w)
	}
	p.worker(gctx, cancel, r, 0, expand)
	wg.Wait()

	r.errMu.Lock()
	err := r.err
	r.errMu.Unlock()
	if err != nil {
		return err
	}
	if r.pending.Load() > 0 {
		// Abandoned by cancellation before the frontier drained.
		return ctx.Err()
	}
	return nil
}

// fail records the first failure and cancels the group.
func (r *stealRun[T]) fail(cancel context.CancelFunc, err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	cancel()
}

// finish signals global completion exactly once.
func (r *stealRun[T]) finish() {
	r.doneOne.Do(func() { close(r.done) })
}

func (p *StealPool[T]) worker(ctx context.Context, cancel context.CancelFunc, r *stealRun[T], w int, expand func(ctx context.Context, worker int, item T, push func(T), f Frontier) error) {
	own := &r.deques[w]
	push := func(item T) {
		r.pending.Add(1)
		own.mu.Lock()
		own.items = append(own.items, item)
		own.mu.Unlock()
	}
	// The steal-order RNG is made on the first steal attempt: seeding
	// one is a 607-word setup, and a one-worker pool never steals.
	var rng *rand.Rand
	idle := time.Duration(0)

	// step runs expand on one item with panic capture; the deferred
	// pending decrement keeps termination detection exact even when the
	// callback panics or errors.
	step := func(item T) {
		defer func() {
			if r.pending.Add(-1) == 0 {
				r.finish()
			}
			if v := recover(); v != nil {
				r.fail(cancel, &PanicError{Val: v, Stack: debug.Stack()})
			}
		}()
		if err := expand(ctx, w, item, push, r); err != nil {
			r.fail(cancel, err)
		}
	}

	cancelled := ctx.Done()
	for {
		// Cancellation must be observed even while the own deque never
		// drains (a growing frontier): check before every pop, not just
		// when idle. A non-blocking receive is a lock-free load, noise
		// against expanding a state.
		select {
		case <-cancelled:
			return
		default:
		}

		// Own deque first, newest item (LIFO: depth-first traversal).
		own.mu.Lock()
		if n := len(own.items); n > 0 {
			item := own.items[n-1]
			var zero T
			own.items[n-1] = zero
			own.items = own.items[:n-1]
			own.mu.Unlock()
			step(item)
			idle = 0
			continue
		}
		own.mu.Unlock()

		if ctx.Err() != nil {
			return
		}
		select {
		case <-r.done:
			return
		default:
		}

		// Steal half from a victim, scanning in seeded random order.
		if rng == nil {
			rng = rand.New(rand.NewSource(p.seed + int64(w)*0x9E3779B9))
		}
		stolen := false
		for _, v := range rng.Perm(p.workers) {
			if v == w {
				continue
			}
			victim := &r.deques[v]
			victim.mu.Lock()
			n := len(victim.items)
			if n == 0 {
				victim.mu.Unlock()
				continue
			}
			take := (n + 1) / 2
			own.mu.Lock()
			// Oldest first, preserving the victim's order at the thief.
			own.items = append(own.items, victim.items[:take]...)
			own.mu.Unlock()
			rest := copy(victim.items, victim.items[take:])
			for i := rest; i < n; i++ {
				var zero T
				victim.items[i] = zero
			}
			victim.items = victim.items[:rest]
			victim.mu.Unlock()
			stolen = true
			break
		}
		if stolen {
			idle = 0
			continue
		}

		// Nothing anywhere: back off, re-checking for completion,
		// cancellation and fresh work.
		if idle == 0 {
			runtime.Gosched()
			idle = 20 * time.Microsecond
			continue
		}
		select {
		case <-r.done:
			return
		case <-ctx.Done():
			return
		case <-time.After(idle):
		}
		if idle *= 2; idle > idleSleepMax {
			idle = idleSleepMax
		}
	}
}
