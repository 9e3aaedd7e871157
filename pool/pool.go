// Package pool implements a concurrent object pool on top of SEC
// stacks - the "concurrent pools" application the paper's introduction
// cites as a use of concurrent stacks.
//
// A pool relaxes the stack's LIFO contract to "some element": Put and
// Get may be served by any shard. The implementation shards elements
// across per-slice SEC stacks and balances load across them in both
// directions with the engine's steal primitives (one Treiber-style CAS
// through a per-session scratch batch - no announcement, no batch
// protocol):
//
//   - Get first tries its own home shard with the full protocol (which
//     preserves locality and lets SEC's elimination cancel Put/Get
//     pairs of nearby threads), then sweeps the other shards with the
//     TryPop steal primitive, and only escalates to full operations on
//     shards whose steal attempt hit contention.
//   - Put probes its home shard with the TryPush steal primitive -
//     uncontended, a Put is one CAS. After the home solo CAS loses
//     WithPutOverflow consecutive rounds, the home shard is saturated
//     and Puts overflow: they sweep the foreign shards with TryPush,
//     spilling elements to whichever shard has spare capacity, and
//     fall back to the home shard's full batch protocol (joining its
//     batches, where elimination and combining absorb the contention)
//     only when every foreign shard is contended too.
//
// Both sweeps start at a per-handle pseudo-random victim so concurrent
// thieves and overflowers fan out instead of walking the shards in
// lockstep. Together they make shard load bidirectionally
// self-balancing: Get drains quiet shards and Put avoids saturated
// ones, so contention migrates to wherever capacity is.
//
// With WithElasticShards the shard count itself becomes adaptive: the
// constructed WithShards value is a ceiling, and a live window
// [0, liveK) - the shards sessions home to and sweeps visit - grows
// under sustained steal-miss pressure and shrinks, through a
// drain-then-fence protocol, when every live shard runs solo with idle
// steal counters. See Handle.sync and Pool.maybeScale for the
// protocol.
package pool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"secstack/internal/config"
	"secstack/internal/core"
	"secstack/internal/faultpoint"
	"secstack/internal/isession"
	"secstack/internal/metrics"
	"secstack/internal/pad"
	"secstack/internal/tid"
	"secstack/internal/xrand"
)

// Elastic controller tuning. The period between controller passes is
// configurable (WithElasticPeriod); these govern what a pass does.
const (
	// elasticStreak is how many consecutive controller windows must
	// agree before the live window moves - two-window hysteresis, the
	// pool-level analogue of the engine's solo-mode enter/exit bands,
	// so one noisy window cannot flap the shard count.
	elasticStreak = 2

	// elasticGrowDegree is the batch-degree EWMA (operations per
	// batch) at which a live shard votes grow even without steal
	// misses. It is the only organic grow signal reachable at liveK=1,
	// where no foreign shard exists for a sweep to miss on. Above the
	// engine's solo-exit band (2.0) so a shard voting grow has already
	// fallen back to batching, and below the solo-miss observation
	// weight (4.0) so pure fast-path contention can reach it.
	elasticGrowDegree = 3.0

	// elasticSessionsPerShard is the live window's session budget per
	// shard: the external load signal (SetLoadSignal) votes grow while
	// it exceeds liveK*elasticSessionsPerShard.
	elasticSessionsPerShard = 16

	// drainBurst bounds how many elements one controller pass migrates
	// off a retiring shard, so the Put/Get that happened to trigger
	// the pass never stalls unboundedly; the next pass resumes where
	// this one stopped.
	drainBurst = 1024
)

// Fault-injection sites (internal/faultpoint) on the elastic drain
// protocol. All three sit off the Put/Get fast path: the first two
// fire only inside controller-held migration passes, the third only
// in sync's already-cold epoch-mismatch branch, so a disarmed site
// costs the fast path nothing at all.
const (
	// FPMigrateContended makes a migration pass behave as if every
	// TryPop steal off the retiring shard hit contention, forcing the
	// full-protocol Pop escalation - the straggler-mid-op fallback that
	// organic tests cannot schedule on demand.
	FPMigrateContended = "pool.migrate.contended"

	// FPMigrateStall makes a migration pass return without draining
	// anything, as if the burst budget were exhausted immediately. The
	// retiring shard then stays in the draining state across passes,
	// holding open the window in which a grow vote must cancel the
	// drain in flight.
	FPMigrateStall = "pool.migrate.stall"

	// FPSyncStale suppresses a handle's epoch re-home once, modelling
	// the documented stale-stamp race: the handle keeps operating
	// against its pre-resize home - possibly a fenced shard - until its
	// next op, so elements can land beyond the live window and must be
	// recovered by the controller's straggler sweep.
	FPSyncStale = "pool.sync.stale"
)

// elasticStats are the controller's own steal and resize tallies, kept
// separately from the optional metrics collector so the controller
// sees pressure in uninstrumented pools too. One padded block: the
// counters move only on overflow/steal paths, never on the home-shard
// fast path.
type elasticStats struct {
	putHits  atomic.Int64 // overflow Puts that landed on a live foreign shard
	putMiss  atomic.Int64 // overflow sweeps that found every live shard contended
	getHits  atomic.Int64 // Gets that stole from a foreign shard
	getMiss  atomic.Int64 // steal sweeps that escalated to the full protocol
	grows    atomic.Int64 // live-window grows
	shrinks  atomic.Int64 // live-window shrinks (drains begun)
	migrated atomic.Int64 // elements drained off retiring shards
	_        [2*pad.CacheLine - 7*8]byte
}

// Pool is a sharded concurrent object pool. Register hands out
// per-goroutine handles (the fast path for worker loops); the direct
// Get/Put methods transparently reuse the calling P's cached handle,
// so handle-free callers need no session management at all.
type Pool[T any] struct {
	shards   []*core.Stack[T]
	tids     *tid.Allocator
	overflow int          // Put-overflow threshold; 0 disables
	m        *metrics.SEC // put- and get-steal counters (nil without WithMetrics)

	cache *isession.Sessions[*Handle[T]]

	// Elastic shard state. liveK is the homing-window size in
	// [1, len(shards)] (fixed at len(shards) when elastic is off);
	// epoch stamps every window move so handles re-home lazily on
	// their next operation; draining holds the retiring shard's index
	// while a shrink's drain is in flight (-1 otherwise). Invariant:
	// draining is either -1 or equal to liveK - the retiring shard
	// sits just above the window, steal-visible to Get until fenced.
	elastic  bool
	period   int
	liveK    atomic.Int32
	draining atomic.Int32
	epoch    atomic.Uint64
	nextHome atomic.Uint64 // round-robin homing cursor

	st elasticStats

	ctl struct {
		mu sync.Mutex // serializes controller passes; fields below are mu-owned

		lastPutHits, lastPutMiss int64 // tallies at the previous pass
		lastGetHits, lastGetMiss int64
		growStreak, shrinkStreak int        // consecutive agreeing windows
		load                     func() int // external load gauge (SetLoadSignal)
		drainH                   *Handle[T] // lazily registered migration handle
	}
}

// Option configures New; it is the shared option type of the whole
// repository, so the stack package's WithMaxThreads works here
// unchanged.
type Option = config.Option

// WithShards sets the number of SEC stacks elements spread across
// (default 4). Under WithElasticShards this is the ceiling the live
// shard window moves within.
func WithShards(n int) Option { return config.WithShards(n) }

// WithMaxThreads bounds concurrently live handles (default 256). Close
// recycles handle slots, so this is a concurrency bound, not a lifetime
// bound. An elastic pool's controller takes one slot of this budget
// for its internal migration handle on the first shrink.
func WithMaxThreads(n int) Option { return config.WithMaxThreads(n) }

// WithFreezerSpin sets the batch-growing pre-freeze backoff of the
// pool's SEC shards in spin iterations. The pool's default is 0 - not
// the stack's 128 - because its sharding already spreads contention
// and a Get escalating to the full protocol should not stall on
// freezes hoping for announcers. Steal probes never pay the spin
// either way; only full-protocol operations freeze batches.
func WithFreezerSpin(s int) Option { return config.WithFreezerSpin(s) }

// WithAdaptiveSpin toggles the adaptive freezer backoff in the pool's
// SEC shards: each shard tunes its pre-freeze spin on its batch-degree
// EWMA, growing toward the ceiling under contention and decaying
// toward zero when batches freeze near-empty. The ceiling is
// WithFreezerSpin when given, else the shared default (128) - with the
// pool's own 0-spin default there would be nothing for the controller
// to do.
func WithAdaptiveSpin(on bool) Option { return config.WithAdaptiveSpin(on) }

// WithAdaptive toggles contention adaptivity in the pool's SEC shards:
// each shard's operations take the solo fast path (one direct CAS)
// while its recent batch degree is ~1 and fall back to the full batch
// protocol under contention. Forced on by WithElasticShards, whose
// shrink signal reads the shards' solo-mode bits.
func WithAdaptive(on bool) Option { return config.WithAdaptive(on) }

// WithBatchRecycling toggles batch recycling in the pool's SEC shards,
// so their steady-state freeze paths allocate nothing.
func WithBatchRecycling(on bool) Option { return config.WithBatchRecycling(on) }

// WithPutOverflow sets the Put-overflow threshold: after this many
// consecutive home-shard solo-CAS losses, a handle's Puts sweep the
// foreign shards with the TryPush steal primitive before falling back
// to the home shard's full batch protocol - the push-side twin of
// Get's peek-then-steal, completing bidirectional shard balancing.
// Default 2; 0 disables overflow and pins every Put to its home shard.
func WithPutOverflow(threshold int) Option { return config.WithPutOverflow(threshold) }

// WithRecycling reuses the shards' popped stack nodes, protected by
// hazard pointers, instead of allocating a fresh node per Put, so a
// steady-state Put/Get cycle - overflow steals included - allocates
// nothing.
func WithRecycling() Option { return config.WithRecycling() }

// WithMetrics enables the pool's steal counters in both balancing
// directions - Put-overflow hits and misses, and the Get steal sweep's
// hits and misses (via Metrics or Snapshot) - plus the elastic
// resize/migration counters and the per-shard engine degree counters
// Snapshot merges in. The elastic controller itself needs no metrics:
// it runs off its own internal tallies.
func WithMetrics() Option { return config.WithMetrics() }

// WithImplicitSessions toggles the per-P affinity tier behind the
// handle-free Get/Put methods (default on); see the stack package's
// option of the same name.
func WithImplicitSessions(on bool) Option { return config.WithImplicitSessions(on) }

// WithAnnounceEvery sets the cached implicit sessions' amortized
// hazard-announcement cadence (default 8; 1 restores the eager per-op
// clear); see the stack package's option of the same name.
func WithAnnounceEvery(k int) Option { return config.WithAnnounceEvery(k) }

// WithElasticShards toggles the pool's elastic shard controller
// (default off). On, WithShards becomes a ceiling: the live shard
// window [0, liveK) that sessions home to and sweeps visit starts at
// one shard and grows under sustained steal-miss pressure in both
// balancing directions, a saturated shard's batch-degree EWMA, or a
// high SetLoadSignal gauge (default: the pool's live-handle count);
// it shrinks - retiring shards drain through the TryPop steal
// primitive before being fenced - when every live shard runs solo
// with idle steal counters and the load gauge fits the narrowed
// window. Implies WithAdaptive(true) for the pool's shards.
func WithElasticShards(on bool) Option { return config.WithElasticShards(on) }

// WithElasticPeriod sets the elastic controller's op cadence: each
// handle runs one controller pass per k of its Put/Get calls
// (amortized and try-locked, so concurrent handles never stack passes;
// there is no background goroutine). Default 2048; values below 1
// clamp to 1.
func WithElasticPeriod(k int) Option { return config.WithElasticPeriod(k) }

// New returns an empty pool.
func New[T any](opts ...Option) *Pool[T] {
	c := config.Resolve(opts)
	if c.ElasticShards {
		// The shrink signal reads the shards' solo-mode bits, which
		// only move under adaptivity; elastic pools always run
		// adaptive shards.
		c.Adaptive = true
	}
	p := &Pool[T]{
		shards:   make([]*core.Stack[T], c.Shards),
		tids:     tid.New(c.MaxThreads),
		overflow: c.PutOverflow,
		elastic:  c.ElasticShards,
		period:   c.ElasticPeriod,
	}
	// Elastic pools start at one live shard and earn the rest:
	// WithShards is a ceiling, and the controller widens the window
	// only when pressure shows up. Starting wide would also make grow
	// undemonstrable on a fresh pool - there would be nothing above
	// the window to grow into.
	if p.elastic {
		p.liveK.Store(1)
		// The default load gauge is the pool's own live-session count:
		// a registration wave widens the window ahead of the steal
		// pressure it would cause. SetLoadSignal overrides it with a
		// caller-owned gauge (secd installs its connection count).
		p.ctl.load = p.tids.InUse
	} else {
		p.liveK.Store(int32(c.Shards))
	}
	p.draining.Store(-1)
	if c.CollectMetrics {
		p.m = metrics.NewSEC(c.Shards)
	}
	// The pool's shards default to no freezer spin (see WithFreezerSpin);
	// an explicit setting - or enabling the adaptive controller, which
	// needs a non-zero ceiling - opts into the configured value.
	spin := 0
	if c.FreezerSpinSet || c.AdaptiveSpin {
		spin = c.FreezerSpin
	}
	for i := range p.shards {
		// One aggregator per shard: the pool's sharding already spreads
		// contention, and each shard sees only nearby threads.
		p.shards[i] = core.New[T](core.Options{
			Aggregators:    1,
			MaxThreads:     c.MaxThreads,
			FreezerSpin:    spin,
			AdaptiveSpin:   c.AdaptiveSpin,
			Recycle:        c.Recycle,
			Adaptive:       c.Adaptive,
			BatchRecycle:   c.BatchRecycle,
			CollectMetrics: c.CollectMetrics,
		})
	}
	// Cached implicit handles publish their per-shard hazard slots once
	// per AnnounceEvery ops (amortized announcement); explicit handles
	// keep the eager per-op clear.
	p.cache = isession.New(c.ImplicitAffinity, func() (*Handle[T], error) {
		h, err := p.TryRegister()
		if err != nil {
			return nil, err
		}
		for _, sh := range h.handles {
			sh.SetDoneCadence(c.AnnounceEvery)
		}
		return h, nil
	}, func(h *Handle[T]) { h.Close() })
	return p
}

// Put adds v to the pool through a cached per-P handle. Worker loops
// should prefer an explicit Register-ed handle, which also carries the
// overflow state that makes repeated Puts adaptive.
func (p *Pool[T]) Put(v T) {
	e := p.cache.Acquire()
	e.H.Put(v)
	p.cache.Release(e)
}

// Get removes and returns some element through a cached per-P handle;
// ok is false only if every shard was observed empty.
func (p *Pool[T]) Get() (v T, ok bool) {
	e := p.cache.Acquire()
	v, ok = e.H.Get()
	p.cache.Release(e)
	return v, ok
}

// Metrics returns the pool-level steal collector (Put-overflow and
// Get-steal hits and misses per victim shard), or nil if WithMetrics
// was not given. For the merged view including the shards' engine
// degree counters, use Snapshot.
func (p *Pool[T]) Metrics() *metrics.SEC { return p.m }

// Snapshot merges the pool-level steal counters with every shard's
// engine degree snapshot - batching degree, occupancy, fast-path and
// reclaim counters summed across shards - so one snapshot carries the
// whole pool's trajectory. Counter fields are zero when WithMetrics
// was not given; LiveShards is always populated.
//
// Resize safety: the live window is read once up front (the gauge is a
// single coherent value, not a sum that a concurrent resize could
// tear), and the counter walk covers the constructed maximum - fenced
// shards' counters are monotonic history that must stay in the sums,
// not live traffic to exclude.
func (p *Pool[T]) Snapshot() metrics.Snapshot {
	live := int(p.liveK.Load())
	out := p.m.Snapshot()
	for _, s := range p.shards {
		out.Accumulate(s.Metrics().Snapshot())
	}
	out.LiveShards = live
	return out
}

// LiveShards reports the elastic live-window size - how many shards
// sessions currently home to; the constructed shard count when
// elasticity is off.
func (p *Pool[T]) LiveShards() int { return int(p.liveK.Load()) }

// ScaleEpoch reports how many times the live shard window has moved.
func (p *Pool[T]) ScaleEpoch() uint64 { return p.epoch.Load() }

// SetLoadSignal replaces the elastic controller's load gauge: while
// f() exceeds the live window's session budget
// (elasticSessionsPerShard per live shard), the controller votes grow
// even before steal pressure materializes. The default gauge is the
// pool's own live-handle count; secd wires its connection-session
// count here, so a connection wave widens the pool ahead of the convoy
// it would otherwise cause. f must be safe for concurrent use; the
// signal is ignored by non-elastic pools.
func (p *Pool[T]) SetLoadSignal(f func() int) {
	p.ctl.mu.Lock()
	p.ctl.load = f
	p.ctl.mu.Unlock()
}

// ErrExhausted is returned by TryRegister when MaxThreads handles are
// live at the same time.
var ErrExhausted = errors.New("pool: more than MaxThreads handles live")

// Handle is a per-goroutine session. Handles must not be shared between
// goroutines, and should be Closed when their goroutine is done so the
// handle slots - here and in every shard - recycle.
type Handle[T any] struct {
	p       *Pool[T]
	id      int
	home    int
	handles []*core.Handle[T]
	rng     *xrand.State // rotates both sweeps' starting victims

	// putMiss counts consecutive home-shard solo-CAS losses; at the
	// pool's overflow threshold, Puts start sweeping foreign shards.
	// Reset by any home solo success, decayed - not reset - by a
	// successful overflow steal, so a still-saturated home costs one
	// probe per Put, not a fresh run-up to the threshold.
	putMiss int

	// epoch is the live-window epoch the handle's home placement was
	// computed under; a mismatch at op start re-homes (see sync).
	// ticks counts ops toward the next elastic controller pass.
	epoch uint64
	ticks int
}

// Register returns a new handle. Slots released by Close are recycled,
// so registration panics only when MaxThreads handles are live at the
// same time; TryRegister is the non-panicking variant.
func (p *Pool[T]) Register() *Handle[T] {
	h, err := p.TryRegister()
	if err != nil {
		panic(err.Error())
	}
	return h
}

// TryRegister is Register with an error in place of the exhaustion
// panic, for callers that prefer backpressure over crashing - the same
// contract the stack, deque and funnel packages offer.
func (p *Pool[T]) TryRegister() (*Handle[T], error) {
	id, err := p.tids.Acquire()
	if err != nil {
		return nil, ErrExhausted
	}
	h := &Handle[T]{p: p, id: id, handles: make([]*core.Handle[T], len(p.shards))}
	for i, s := range p.shards {
		sh, err := s.TryRegister()
		if err != nil {
			// Unreachable while shard MaxThreads matches the pool's, but
			// unwind cleanly rather than leak the slots already taken,
			// and keep the documented error identity rather than the
			// shard's internal one.
			for j := 0; j < i; j++ {
				h.handles[j].Close()
			}
			p.tids.Release(id)
			return nil, fmt.Errorf("%w: shard %d: %v", ErrExhausted, i, err)
		}
		h.handles[i] = sh
	}
	// Home shards rotate round-robin over the live window - an explicit
	// spread rather than id%shards, so recycled ids and a moving window
	// both keep sessions evenly placed - and the placement is
	// epoch-stamped: when the window moves, the session's next op
	// re-homes (see sync), so shrink never strands a session on a
	// fenced shard. The steal sweep's start decorrelates further per
	// op via the handle's rng.
	h.rehome(p.epoch.Load())
	h.rng = xrand.New(uint64(id)) // splitmix64 decorrelates adjacent ids
	return h, nil
}

// rehome recomputes the handle's home round-robin across the live
// window, stamping the epoch the caller observed. Callers load the
// epoch before the window: a resize racing the re-home then leaves a
// stale stamp behind and the next op simply re-homes again.
func (h *Handle[T]) rehome(epoch uint64) {
	h.epoch = epoch
	h.home = int(h.p.nextHome.Add(1)-1) % int(h.p.liveK.Load())
}

// sync is the elastic prologue of every Put/Get: re-home if the live
// window moved since this handle's last op, and run one controller
// pass every period ops. Non-elastic pools pay a single predictable
// branch.
func (h *Handle[T]) sync() {
	p := h.p
	if !p.elastic {
		return
	}
	if ep := p.epoch.Load(); ep != h.epoch {
		// An injected stale stamp skips this re-home, as if a resize
		// raced it; the handle stays on its old window for one op.
		if !faultpoint.Fired(FPSyncStale) {
			h.rehome(ep)
		}
	}
	if h.ticks++; h.ticks >= p.period {
		h.ticks = 0
		p.maybeScale()
	}
}

// Close releases the handle and its per-shard sessions for reuse by a
// future Register. Close is idempotent; any other use of a closed
// handle is a bug.
func (h *Handle[T]) Close() {
	if h.id < 0 {
		return
	}
	for _, sh := range h.handles {
		sh.Close()
	}
	h.p.tids.Release(h.id)
	h.id = -1
}

// foreignVictim maps step i of a sweep starting at offset off (drawn
// from rng over [0, lim-1)) to a foreign shard index below lim: the
// rotation visits every shard in the window except home exactly once,
// from a per-sweep pseudo-random start so concurrent sweeps - Get's
// steals and Put's overflows alike - fan out instead of convoying
// shard by shard. lim is the sweep's window (the live window for
// elastic pools, all shards otherwise) and must be at least 2.
func (h *Handle[T]) foreignVictim(off, i, lim int) int {
	hm := h.home
	if hm >= lim {
		// A shrink raced this op's window read; the handle re-homes on
		// its next op. Sweep as if homed at 0 - probing the real home
		// again is merely redundant.
		hm = 0
	}
	return (hm + 1 + (off+i)%(lim-1)) % lim
}

// notePutSteal records one Put-overflow outcome in the optional
// metrics collector and, for elastic pools, the controller's own
// tallies (the controller must see pressure without WithMetrics).
func (p *Pool[T]) notePutSteal(idx int, hit bool) {
	p.m.RecordPutSteal(idx, hit)
	if p.elastic {
		if hit {
			p.st.putHits.Add(1)
		} else {
			p.st.putMiss.Add(1)
		}
	}
}

// noteGetSteal is notePutSteal's Get-side mirror.
func (p *Pool[T]) noteGetSteal(idx int, hit bool) {
	p.m.RecordGetSteal(idx, hit)
	if p.elastic {
		if hit {
			p.st.getHits.Add(1)
		} else {
			p.st.getMiss.Add(1)
		}
	}
}

// Put adds v to the pool, preferring the handle's home shard.
//
// The fast path is one TryPush - a single Treiber-style CAS on the
// home shard, no announcement, no batch protocol. When that CAS loses
// WithPutOverflow consecutive rounds the home shard is saturated, and
// Put overflows: it sweeps the foreign shards with TryPush, starting
// from a pseudo-random victim, spilling the element to the first quiet
// shard - the push-side twin of Get's steal sweep. Only when every
// foreign shard is contended too (or overflow is disabled) does Put
// fall back to the home shard's full batch protocol, joining its
// batches where elimination and combining absorb exactly the
// contention the probes observed.
//
// Elastic pools bound the overflow sweep to the live window: fenced
// and draining shards must see no new elements, or a shrink would
// never settle.
func (h *Handle[T]) Put(v T) {
	h.sync()
	live := len(h.handles)
	if h.p.elastic {
		live = int(h.p.liveK.Load())
	}
	overflowing := h.p.overflow > 0 && h.putMiss >= h.p.overflow && live > 1
	if !overflowing {
		if h.handles[h.home].TryPush(v) {
			h.putMiss = 0
			return
		}
		if h.p.overflow == 0 || live == 1 {
			h.handles[h.home].Push(v)
			return
		}
		if h.putMiss++; h.putMiss < h.p.overflow {
			h.handles[h.home].Push(v)
			return
		}
	}
	// Overflow: the home solo CAS lost the threshold's worth of
	// consecutive rounds. Spill to a quiet shard in the live window.
	off := h.rng.Intn(live - 1)
	for i := 0; i < live-1; i++ {
		idx := h.foreignVictim(off, i, live)
		if h.handles[idx].TryPush(v) {
			h.p.notePutSteal(idx, true)
			// Decay instead of reset: the next Put probes home once and
			// resumes overflowing on loss, rather than paying the full
			// run-up while home is still saturated.
			h.putMiss = h.p.overflow - 1
			return
		}
	}
	// Every live shard is contended: batching is what absorbs that.
	// Join the home shard's full protocol and restart the loss count.
	h.p.notePutSteal(h.home, false)
	h.handles[h.home].Push(v)
	h.putMiss = 0
}

// Get removes and returns some element; ok is false only if every shard
// was observed empty.
//
// The miss loop is peek-then-steal: after the home shard's full Pop
// (which keeps elimination with nearby threads), every foreign shard
// in the sweep window is probed with TryPop - one Treiber-style CAS,
// no announcement - starting from a pseudo-random victim so concurrent
// thieves fan out instead of convoying shard by shard. Only if some
// steal hit contention (meaning elements may exist but the CAS lost)
// does Get fall back to the full batch protocol across the shards;
// steals that observed an empty shard already have their answer.
//
// Elastic pools sweep the live window plus the draining shard (a
// retiring shard stays steal-visible until fenced, so its elements
// keep flowing out), and an all-empty sweep additionally probes the
// fenced shards before answering "empty": a handle parked mid-op can
// Put to a home the window has since fenced, so "all live shards
// empty" is not yet "pool empty". The contended fallback always walks
// every constructed shard - it is the conservation anchor.
func (h *Handle[T]) Get() (v T, ok bool) {
	h.sync()
	if v, ok = h.handles[h.home].Pop(); ok {
		return v, true
	}
	n := len(h.handles)
	sweep := n
	if h.p.elastic {
		sweep = int(h.p.liveK.Load())
		if h.p.draining.Load() >= 0 && sweep < n {
			sweep++ // the draining shard sits at index liveK
		}
	}
	contended := false
	if sweep > 1 {
		off := h.rng.Intn(sweep - 1)
		for i := 0; i < sweep-1; i++ {
			idx := h.foreignVictim(off, i, sweep)
			if v, ok, applied := h.handles[idx].TryPop(); applied {
				if ok {
					h.p.noteGetSteal(idx, true)
					return v, true
				}
				continue // observed empty, uncontended: answered
			}
			contended = true
		}
	}
	if !contended {
		// Conservation pass over the fenced shards (empty loop for
		// non-elastic pools): stragglers may have landed above the
		// window, and "empty" may only be declared once they are
		// covered too.
		for idx := sweep; idx < n; idx++ {
			if v, ok, applied := h.handles[idx].TryPop(); applied {
				if ok {
					h.p.noteGetSteal(idx, true)
					return v, true
				}
				continue
			}
			contended = true
		}
	}
	if !contended {
		// Every shard observed uncontendedly empty: an answer, not a
		// balancing failure - no counter moves (the mirror of Put's
		// never-overflowed fast path).
		return v, false
	}
	// Contended steals mean concurrent operations on those shards; join
	// their batches through the full protocol, every constructed shard
	// included (home may have refilled while the sweep ran, and fenced
	// shards may hold straggler elements). Recorded against the home
	// shard as a get-steal miss, mirroring the Put-overflow fallback.
	h.p.noteGetSteal(h.home, false)
	for i := 0; i < n; i++ {
		idx := (h.home + i) % n
		if v, ok = h.handles[idx].Pop(); ok {
			return v, true
		}
	}
	return v, false
}

// maybeScale is one elastic controller pass. At most one runs at a
// time (TryLock: a losing caller just continues its operation), and
// each pass reads the steal tallies accumulated since the previous
// pass - so the "window" a decision is based on is the last
// ElasticPeriod-ish operations across all handles.
//
// Signals, in precedence order:
//
//   - An in-flight drain is continued first, and leftovers on fenced
//     shards are migrated (stragglers can land above the window after
//     a fence; see Get).
//   - Grow when both balancing directions missed in the window (Puts
//     found every live shard contended AND Gets escalated - one-sided
//     pressure is what the steal sweeps themselves absorb), when some
//     live shard's batch-degree EWMA crossed elasticGrowDegree (the
//     only organic signal at liveK=1), or when the external load
//     gauge exceeds the window's session budget.
//   - Shrink when the window was completely steal-idle, every live
//     shard sits in solo mode, AND the load gauge fits the narrowed
//     window: capacity is provably excess - nothing overflowed,
//     nothing stole, no shard batched, and no session wave is holding
//     the width it asked for.
//
// Both directions require elasticStreak consecutive agreeing windows,
// and a disagreeing window resets both streaks, so a noisy boundary
// cannot flap the window. Grow wins ties: a grow vote during a drain
// cancels the drain rather than queueing behind it.
func (p *Pool[T]) maybeScale() {
	if !p.ctl.mu.TryLock() {
		return
	}
	defer p.ctl.mu.Unlock()

	if d := int(p.draining.Load()); d >= 0 {
		if p.migrate(d) {
			// Observed empty: fence. From here the shard is invisible
			// to steal sweeps; only the conservation paths revisit it.
			p.draining.Store(-1)
		}
	}
	k := int(p.liveK.Load())
	for i := k; i < len(p.shards); i++ {
		if i != int(p.draining.Load()) && p.shards[i].Len() > 0 {
			p.migrate(i) // straggler leftovers on a fenced shard
		}
	}

	ph, pm := p.st.putHits.Load(), p.st.putMiss.Load()
	gh, gm := p.st.getHits.Load(), p.st.getMiss.Load()
	dph, dpm := ph-p.ctl.lastPutHits, pm-p.ctl.lastPutMiss
	dgh, dgm := gh-p.ctl.lastGetHits, gm-p.ctl.lastGetMiss
	p.ctl.lastPutHits, p.ctl.lastPutMiss = ph, pm
	p.ctl.lastGetHits, p.ctl.lastGetMiss = gh, gm

	grow := dpm > 0 && dgm > 0
	if !grow && p.maxLiveDegree(k) >= elasticGrowDegree {
		grow = true
	}
	if !grow && p.ctl.load != nil && p.ctl.load() > k*elasticSessionsPerShard {
		grow = true
	}
	switch {
	case grow:
		p.ctl.shrinkStreak = 0
		if p.ctl.growStreak++; p.ctl.growStreak >= elasticStreak {
			p.ctl.growStreak = 0
			p.grow(k)
		}
	case dph+dpm+dgh+dgm == 0 && k > 1 && p.draining.Load() < 0 && p.allLiveSolo(k) &&
		(p.ctl.load == nil || p.ctl.load() <= (k-1)*elasticSessionsPerShard):
		// The load floor keeps the boundary from flapping: a window
		// that only exists because the gauge demanded it must not be
		// given back while the demand stands, however solo-idle a
		// scheduling quantum makes the shards look.
		p.ctl.growStreak = 0
		if p.ctl.shrinkStreak++; p.ctl.shrinkStreak >= elasticStreak {
			p.ctl.shrinkStreak = 0
			p.beginShrink(k)
		}
	default:
		p.ctl.growStreak, p.ctl.shrinkStreak = 0, 0
	}
}

// maxLiveDegree is the highest batch-degree EWMA across the live
// window - max, not mean, because one saturated shard is reason enough
// to spread.
func (p *Pool[T]) maxLiveDegree(k int) float64 {
	d := 0.0
	for i := 0; i < k; i++ {
		d = max(d, p.shards[i].DegreeEWMA())
	}
	return d
}

// allLiveSolo reports whether every live shard currently runs the solo
// fast path.
func (p *Pool[T]) allLiveSolo(k int) bool {
	for i := 0; i < k; i++ {
		if !p.shards[i].Solo() {
			return false
		}
	}
	return true
}

// grow turns shard k live (called under ctl.mu with k == liveK). A
// grow during a drain instead cancels the drain: the retiring shard -
// index k, by the draining invariant - rejoins the window with
// whatever it still holds.
func (p *Pool[T]) grow(k int) {
	if k >= len(p.shards) {
		return
	}
	if int(p.draining.Load()) == k {
		p.draining.Store(-1)
	}
	p.liveK.Store(int32(k + 1))
	p.epoch.Add(1)
	p.st.grows.Add(1)
	p.m.RecordResize(k, true)
}

// beginShrink retires shard k-1 (called under ctl.mu with k == liveK,
// k > 1). Ordering is the protocol: the homing window shrinks first -
// no new homes, no new overflow spills - while the shard stays
// steal-visible to Get (draining == new liveK), and the fence that
// drops it from the sweep happens only in maybeScale once a migration
// pass observes it empty.
func (p *Pool[T]) beginShrink(k int) {
	r := k - 1
	p.liveK.Store(int32(r))
	p.draining.Store(int32(r))
	p.epoch.Add(1)
	p.st.shrinks.Add(1)
	p.m.RecordResize(r, false)
	if p.migrate(r) {
		p.draining.Store(-1)
	}
}

// migrate moves shard i's elements into the live window through the
// controller's internal drain handle: TryPop first - the same one-CAS
// steal Get's sweep uses, so migration needs no new mechanism and
// pays no batch protocol - escalating to one full-protocol Pop
// whenever contention blocks the steal (a straggler mid-op on the
// retiring shard; joining its batch drains it too). At most drainBurst
// elements move per call; reports whether the shard was observed
// empty. Called only under ctl.mu.
func (p *Pool[T]) migrate(i int) (empty bool) {
	if faultpoint.Fired(FPMigrateStall) {
		return false // injected no-progress pass; the drain stays open
	}
	h := p.drainHandle()
	if h == nil {
		return false
	}
	moved := 0
	defer func() {
		if moved > 0 {
			p.st.migrated.Add(int64(moved))
			p.m.RecordMigrate(i, moved)
		}
	}()
	for moved < drainBurst {
		var v T
		ok, applied := false, false
		if !faultpoint.Fired(FPMigrateContended) {
			v, ok, applied = h.handles[i].TryPop()
		}
		if applied && !ok {
			return true // observed empty, uncontended
		}
		if !applied {
			if v, ok = h.handles[i].Pop(); !ok {
				return true
			}
		}
		// Re-Put through the normal path: sync re-homes the drain
		// handle into the live window, and a recursive controller pass
		// is impossible (the TryLock above is held).
		h.Put(v)
		moved++
	}
	return false
}

// drainHandle lazily registers the controller's migration handle - one
// slot of the MaxThreads budget, taken on the first shrink and kept
// for the pool's lifetime. Returns nil when the budget is exhausted;
// the drain then just retries on a later pass.
func (p *Pool[T]) drainHandle() *Handle[T] {
	if p.ctl.drainH == nil {
		h, err := p.TryRegister()
		if err != nil {
			return nil
		}
		p.ctl.drainH = h
	}
	return p.ctl.drainH
}

// Size counts pooled elements; a racy diagnostic for quiescent states.
func (p *Pool[T]) Size() int {
	total := 0
	for _, s := range p.shards {
		total += s.Len()
	}
	return total
}
