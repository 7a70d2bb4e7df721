package sim

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// This file implements conservative-synchronization parallelism in the
// Chandy–Misra–Bryant tradition: a ShardGroup runs one Engine per
// partition, partitions exchange timestamped items over Conduits whose
// fixed minimum delay is the lookahead guarantee, and each shard only
// executes events strictly below its lower-bound timestamp (LBTS) — the
// earliest instant at which a not-yet-seen cross-shard arrival could still
// occur. There are no barriers: shards advance independently in batches,
// and a central fast-forward pass (a null-message economy run by whichever
// worker goes idle last) raises LBTS floors when every shard is blocked on
// its neighbours.
//
// Determinism contract: for a fixed partition assignment, results are
// byte-identical for any worker count. Each shard's execution order is the
// strict total order (time, band, seq); conduit arrivals carry
// per-conduit sequence numbers assigned in send order (which is itself
// deterministic, since each conduit has a single source shard), so heap
// keys never depend on scheduling. Conservative synchronization guarantees
// an arrival is inserted before the destination clock reaches it; batching
// only changes *when* an insertion happens, never where it sorts.

// shard run states, guarded by ShardGroup.mu.
const (
	shardRunnable = iota
	shardRunning
	shardParked
)

// unreachable is the sentinel distance for shard pairs with no conduit
// path. Far below MaxTime so Floyd–Warshall sums cannot overflow.
const unreachable = MaxTime / 4

// ShardGroup owns a set of partition engines and the scheduler that runs
// them to a common deadline. Create one with NewShardGroup, connect the
// partitions with NewConduit, seed each Engine with initial events, then
// call Run exactly once.
type ShardGroup struct {
	shards   []*Shard
	conduits []conduitLink

	mu      sync.Mutex
	cond    *sync.Cond
	runq    []*Shard
	running int
	done    bool
	failure *shardPanic
	started bool

	deadline Time
	// dist[u][s] is the minimum cumulative conduit delay over any path from
	// shard u to shard s (unreachable when there is none; dist[s][s] is the
	// shortest cycle through s). Computed once at Run from the conduit
	// graph; the fast-forward pass uses it to bound how soon anything shard
	// u does next could reach shard s.
	dist [][]Time
}

type shardPanic struct {
	val   any
	stack []byte
}

// Shard is one partition: an Engine plus its scheduler bookkeeping.
type Shard struct {
	id  int
	eng *Engine
	g   *ShardGroup

	in, out []conduitLink
	// wakeBuf is reused across batches to gather wake candidates without
	// holding the scheduler lock while publishing bounds.
	wakeBuf []wakeCand

	// Scheduler fields, guarded by g.mu.
	state int
	// gen is bumped on every wake signal; genSeen snapshots it when a batch
	// claims the shard. A parked shard always has gen == genSeen, which is
	// the proof obligation for termination: anything sent to it after its
	// last drain would have bumped gen and requeued it.
	gen, genSeen uint64
	// next is the earliest pending local event after the last batch
	// (MaxTime when the queue is empty).
	next Time
	// lbtsFloor is a scheduler-proven lower bound on all future arrivals,
	// from the fast-forward pass. It can exceed every conduit bound.
	lbtsFloor Time
}

// conduitLink is the type-erased view of a Conduit the scheduler uses.
type conduitLink interface {
	src() int
	dst() int
	lookahead() Duration
	drain() Time
	publish(b Time) (msgs, advanced bool)
}

// wakeCand is a shard that may need waking after a batch published bounds:
// either undrained messages await it (msgs), or a conduit bound advanced
// to b and might unblock it.
type wakeCand struct {
	s     *Shard
	bound Time
	msgs  bool
}

// NewShardGroup creates n empty, connected-by-nothing partition engines.
func NewShardGroup(n int) *ShardGroup {
	if n < 1 {
		panic(fmt.Sprintf("sim: NewShardGroup with %d shards", n))
	}
	g := &ShardGroup{}
	g.cond = sync.NewCond(&g.mu)
	for i := 0; i < n; i++ {
		g.shards = append(g.shards, &Shard{id: i, eng: NewEngine(), g: g})
	}
	return g
}

// Shards reports the number of partitions.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Engine returns partition i's engine. Seeding it with events is only safe
// before Run or from within its own shard's callbacks.
func (g *ShardGroup) Engine(i int) *Engine { return g.shards[i].eng }

// Fired reports the total number of events executed across all partitions.
// Only meaningful before Run or after it returns.
func (g *ShardGroup) Fired() uint64 {
	var n uint64
	for _, s := range g.shards {
		n += s.eng.Fired()
	}
	return n
}

// Pending reports the total number of live queued events across all
// partitions. Only meaningful before Run or after it returns.
func (g *ShardGroup) Pending() int {
	n := 0
	for _, s := range g.shards {
		n += s.eng.Pending()
	}
	return n
}

// Run executes all partitions up to and including deadline on up to
// workers OS threads (clamped to [1, shards]) and returns when every
// partition has quiesced: no local event at or below the deadline remains
// anywhere. Results are byte-identical for any workers value. A panic on
// any shard stops the group and is re-raised here. Run may be called once
// per group.
func (g *ShardGroup) Run(deadline Time, workers int) {
	g.mu.Lock()
	if g.started {
		g.mu.Unlock()
		panic("sim: ShardGroup.Run called twice")
	}
	g.started = true
	g.deadline = deadline
	g.computeDist()
	for _, s := range g.shards {
		s.state = shardRunnable
		s.gen, s.genSeen = 0, 0
		s.next = 0
		s.lbtsFloor = 0
		g.runq = append(g.runq, s)
	}
	g.mu.Unlock()

	if workers < 1 {
		workers = 1
	}
	if workers > len(g.shards) {
		workers = len(g.shards)
	}
	if workers == 1 {
		g.work()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				g.work()
			}()
		}
		wg.Wait()
	}
	if g.failure != nil {
		panic(fmt.Sprintf("sim: shard worker panicked: %v\n%s", g.failure.val, g.failure.stack))
	}
}

// work is one worker's scheduling loop: claim a runnable shard, run a
// batch, park or requeue it, and when the whole group is idle either
// fast-forward the LBTS floors or declare the run finished.
func (g *ShardGroup) work() {
	g.mu.Lock()
	for {
		if g.done || g.failure != nil {
			g.cond.Broadcast()
			g.mu.Unlock()
			return
		}
		if len(g.runq) == 0 {
			if g.running == 0 {
				if !g.fastForwardLocked() {
					g.done = true
				}
				continue
			}
			g.cond.Wait()
			continue
		}
		s := g.runq[len(g.runq)-1]
		g.runq = g.runq[:len(g.runq)-1]
		s.state = shardRunning
		s.genSeen = s.gen
		floor := s.lbtsFloor
		g.running++
		g.mu.Unlock()

		next, ok := g.runBatch(s, floor)

		g.mu.Lock()
		g.running--
		if !ok {
			continue // runBatch recorded the panic; loop top broadcasts
		}
		s.next = next
		if s.gen != s.genSeen {
			// A peer published to us mid-batch; its messages are safely in
			// the future (at or past our LBTS) but we owe them a drain.
			s.state = shardRunnable
			g.runq = append(g.runq, s)
		} else {
			s.state = shardParked
		}
	}
}

// runBatch drains shard s's inbound conduits, executes every local event
// strictly below the resulting LBTS (capped just past the deadline), and
// publishes fresh bounds to the outbound conduits. It returns the earliest
// remaining local event time. Panics from event callbacks are captured for
// Run to re-raise on the caller's goroutine.
func (g *ShardGroup) runBatch(s *Shard, floor Time) (next Time, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			g.mu.Lock()
			if g.failure == nil {
				g.failure = &shardPanic{val: r, stack: debug.Stack()}
			}
			g.cond.Broadcast()
			g.mu.Unlock()
			next, ok = 0, false
		}
	}()

	lbts := MaxTime
	for _, c := range s.in {
		if b := c.drain(); b < lbts {
			lbts = b
		}
	}
	if floor > lbts {
		lbts = floor
	}
	limit := lbts
	if g.deadline < MaxTime && g.deadline+1 < limit {
		// Events past the deadline never run, so there is no need to wait
		// for bounds covering them; an event *at* the deadline must run,
		// hence the +1 on the strict limit.
		limit = g.deadline + 1
	}
	next = s.eng.RunBelow(limit)

	// Publish per-conduit bounds: nothing this shard does from here on can
	// reach conduit c's destination before min(next, lbts) + lookahead —
	// the earliest instant we could still execute or newly learn about,
	// plus the conduit's floor delay.
	base := next
	if lbts < base {
		base = lbts
	}
	wakes := s.wakeBuf[:0]
	for _, c := range s.out {
		b := MaxTime
		if d := Time(c.lookahead()); base < MaxTime-d {
			b = base + d
		}
		if msgs, advanced := c.publish(b); msgs || advanced {
			wakes = append(wakes, wakeCand{s: g.shards[c.dst()], bound: b, msgs: msgs})
		}
	}
	s.wakeBuf = wakes
	if len(wakes) > 0 {
		g.mu.Lock()
		for _, w := range wakes {
			if w.msgs {
				// Messages owe the destination a drain, whatever its state.
				g.wakeLocked(w.s)
			} else if w.s.state == shardParked && w.bound > w.s.next {
				// A bare bound advance matters only if it could let a parked
				// shard execute its next event. Waking unconditionally would
				// let two idle shards ratchet each other's bounds one
				// lookahead at a time across any event gap; below-next
				// advances are left for the fast-forward pass instead. (An
				// advance that lands while the destination is mid-batch can
				// leave it parked-but-executable; the fast-forward pass
				// always wakes the globally earliest such shard, so progress
				// never stalls.)
				g.wakeLocked(w.s)
			}
		}
		g.mu.Unlock()
	}
	return next, true
}

// wakeLocked signals shard s that a peer advanced a bound or sent it
// messages. Callers hold g.mu.
func (g *ShardGroup) wakeLocked(s *Shard) {
	s.gen++
	if s.state == shardParked {
		s.state = shardRunnable
		g.runq = append(g.runq, s)
		g.cond.Signal()
	}
}

// fastForwardLocked is the null-message economy: called with every shard
// parked and no worker running, it centrally recomputes each shard's LBTS
// floor as min over peers u of (u.next + dist[u][s]) — no event anywhere
// can cause an arrival at s earlier than that — and wakes the shards whose
// floor now exceeds their next event. It reports whether anything was
// woken; when nothing was, every shard's next event is past the deadline
// and the run is complete. Without this pass, idle topologies would creep
// toward the next event one lookahead at a time through O(gap/lookahead)
// bound publications.
func (g *ShardGroup) fastForwardLocked() bool {
	woke := false
	quiescent := true
	for si, s := range g.shards {
		if s.next > g.deadline {
			continue // nothing left to run; floors are irrelevant
		}
		quiescent = false
		floor := MaxTime
		for ui, u := range g.shards {
			if u.next > g.deadline {
				// Capped or empty shards execute nothing more, so they
				// send nothing more (and u.next may be MaxTime).
				continue
			}
			if d := g.dist[ui][si]; d < unreachable && u.next+d < floor {
				floor = u.next + d
			}
		}
		if floor > s.lbtsFloor {
			s.lbtsFloor = floor
		}
		if floor > s.next {
			g.wakeLocked(s)
			woke = true
		}
	}
	if !woke && !quiescent {
		// Cannot happen: the globally earliest non-quiescent shard always
		// receives a floor of at least next + lookahead (or MaxTime when
		// nothing can reach it). Guard against a silent livelock anyway.
		panic("sim: shard scheduler stalled with pending events")
	}
	return woke
}

// computeDist runs Floyd–Warshall over the conduit graph. Callers hold
// g.mu (Run's setup).
func (g *ShardGroup) computeDist() {
	n := len(g.shards)
	g.dist = make([][]Time, n)
	for i := range g.dist {
		g.dist[i] = make([]Time, n)
		for j := range g.dist[i] {
			g.dist[i][j] = unreachable
		}
	}
	for _, c := range g.conduits {
		if d := Time(c.lookahead()); d < g.dist[c.src()][c.dst()] {
			g.dist[c.src()][c.dst()] = d
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := g.dist[i][k]
			if dik >= unreachable {
				continue
			}
			for j := 0; j < n; j++ {
				if dkj := g.dist[k][j]; dkj < unreachable && dik+dkj < g.dist[i][j] {
					g.dist[i][j] = dik + dkj
				}
			}
		}
	}
}

// Conduit is a one-way, single-source inter-shard channel delivering items
// of type T at explicit future times. The fixed delay is both the minimum
// source-to-destination latency and the lookahead the scheduler leans on:
// Send panics if an item is scheduled below the conduit's published bound.
// Per-conduit due times must be nondecreasing (cross-shard links serialize
// their traffic, so this holds by construction, as with DelayLine).
//
// The source side (Send) is called from the source shard's event
// callbacks; the receive side (drain/fire) runs only on the goroutine
// currently executing the destination shard. The two meet at a small
// mutex-guarded double buffer.
type Conduit[T any] struct {
	g            *ShardGroup
	srcID, dstID int
	delay        Duration
	deliver      func(T)
	// ordinal is the conduit's creation index; together with a local
	// message counter it forms arrival sequence numbers that depend only
	// on construction order and traffic, never on worker scheduling.
	ordinal uint64

	// Source-to-destination handoff, guarded by mu.
	mu       sync.Mutex
	buf      []conduitMsg[T]
	bound    Time
	needWake bool

	// Receive side: destination-shard-local, no locking.
	srcEng, dstEng *Engine
	spare          []conduitMsg[T]
	ring           []conduitItem[T]
	head, n        int
	msgIdx         uint64
	lastAt         Time
	ev             event
}

type conduitMsg[T any] struct {
	item T
	at   Time
}

type conduitItem[T any] struct {
	item T
	at   Time
	seq  uint64
}

// NewConduit connects shard src to shard dst with minimum latency delay,
// delivering items through fn on the destination shard. Conduits must be
// created before ShardGroup.Run, and creation order is part of the
// determinism contract (it fixes arrival tie-break order), so build them
// in a fixed topology-derived order. The delay must be positive: a
// zero-lookahead cycle cannot make conservative progress.
func NewConduit[T any](g *ShardGroup, src, dst int, delay Duration, fn func(T)) *Conduit[T] {
	if delay <= 0 {
		panic(fmt.Sprintf("sim: conduit with non-positive delay %d has no lookahead", delay))
	}
	if src == dst {
		panic("sim: conduit connecting a shard to itself")
	}
	if fn == nil {
		panic("sim: NewConduit with nil deliver callback")
	}
	g.mu.Lock()
	if g.started {
		g.mu.Unlock()
		panic("sim: NewConduit after ShardGroup.Run")
	}
	c := &Conduit[T]{
		g:       g,
		srcID:   src,
		dstID:   dst,
		delay:   delay,
		deliver: fn,
		ordinal: uint64(len(g.conduits)),
		// The earliest send happens at source time ≥ 0, so nothing can
		// arrive before delay; start the bound there.
		bound:  Time(delay),
		srcEng: g.shards[src].eng,
		dstEng: g.shards[dst].eng,
	}
	c.ev = event{fn: c, idx: -1, band: bandPortal, pinned: true}
	g.conduits = append(g.conduits, c)
	g.shards[src].out = append(g.shards[src].out, c)
	g.shards[dst].in = append(g.shards[dst].in, c)
	g.mu.Unlock()
	return c
}

func (c *Conduit[T]) src() int            { return c.srcID }
func (c *Conduit[T]) dst() int            { return c.dstID }
func (c *Conduit[T]) lookahead() Duration { return c.delay }

// Delay returns the conduit's lookahead: the minimum source-to-destination
// latency promised at construction. Callers binding a conduit behind a
// physical link can check it against the link's propagation delay.
func (c *Conduit[T]) Delay() Duration { return c.delay }

// Send hands item to the destination shard for delivery at absolute time
// at. Must be called from the source shard's event callbacks (that is what
// makes send order, and thus arrival order, deterministic). at must respect
// the conduit's lookahead promise — at least now + delay — and per-conduit
// due times must be nondecreasing.
func (c *Conduit[T]) Send(at Time, item T) {
	c.mu.Lock()
	if at < c.bound {
		c.mu.Unlock()
		panic(fmt.Sprintf("sim: conduit send at %v violates published bound %v (lookahead %v)", at, c.bound, c.delay))
	}
	c.buf = append(c.buf, conduitMsg[T]{item: item, at: at}) // recycled every drain: grows to the conduit's peak in-flight count
	c.needWake = true
	c.mu.Unlock()
}

// SendAfterDelay delivers item at the source shard's current time plus the
// conduit delay — the earliest instant the lookahead permits.
func (c *Conduit[T]) SendAfterDelay(item T) {
	c.Send(c.srcEng.Now()+Time(c.delay), item)
}

// drain moves every buffered message into the destination engine's event
// queue and returns the source's published bound as of the swap. Runs on
// the goroutine executing the destination shard.
func (c *Conduit[T]) drain() Time {
	c.mu.Lock()
	msgs := c.buf
	c.buf = c.spare[:0]
	c.needWake = false
	b := c.bound
	c.mu.Unlock()

	var zero T
	for i := range msgs {
		m := &msgs[i]
		if c.msgIdx > 0 && m.at < c.lastAt {
			panic(fmt.Sprintf("sim: conduit due times went backwards (%v after %v)", m.at, c.lastAt))
		}
		c.lastAt = m.at
		// Arrival rank: conduit ordinal then per-conduit message index.
		// Both are independent of worker count — the k-th message ever
		// sent through this conduit always lands here as index k, because
		// drains empty the buffer in send order.
		seq := c.ordinal<<40 | c.msgIdx
		c.msgIdx++
		c.pushRing(conduitItem[T]{item: m.item, at: m.at, seq: seq})
		m.item = zero // drop the reference before the slice becomes spare
	}
	c.spare = msgs
	if c.ev.idx < 0 && c.n > 0 {
		h := &c.ring[c.head]
		c.dstEng.pushAt(&c.ev, h.at, h.seq)
	}
	return b
}

// publish raises the conduit's bound to b (bounds are monotone; stale
// batches cannot lower one) and reports whether undrained messages are
// waiting and whether the bound advanced.
func (c *Conduit[T]) publish(b Time) (msgs, advanced bool) {
	c.mu.Lock()
	msgs = c.needWake
	c.needWake = false
	if b > c.bound {
		c.bound = b
		advanced = true
	}
	c.mu.Unlock()
	return msgs, advanced
}

// fire delivers the head arrival and re-arms the portal event for the
// next one, exactly as DelayLine does for local traffic.
func (c *Conduit[T]) fire() {
	it := c.popRing()
	c.deliver(it.item)
	if c.ev.idx < 0 && c.n > 0 {
		h := &c.ring[c.head]
		c.dstEng.pushAt(&c.ev, h.at, h.seq)
	}
}

func (c *Conduit[T]) pushRing(it conduitItem[T]) {
	if c.n == len(c.ring) {
		c.grow()
	}
	c.ring[(c.head+c.n)&(len(c.ring)-1)] = it
	c.n++
}

func (c *Conduit[T]) popRing() conduitItem[T] {
	it := c.ring[c.head]
	var zero conduitItem[T]
	c.ring[c.head] = zero // drop the item reference for the GC
	c.head = (c.head + 1) & (len(c.ring) - 1)
	c.n--
	return it
}

func (c *Conduit[T]) grow() {
	newCap := 2 * len(c.ring)
	if newCap == 0 {
		newCap = 16
	}
	next := make([]conduitItem[T], newCap)
	for i := 0; i < c.n; i++ {
		next[i] = c.ring[(c.head+i)&(len(c.ring)-1)]
	}
	c.ring = next
	c.head = 0
}
