// Package config is the single configuration type behind every public
// constructor in the repository. The public packages (stack, deque,
// pool, funnel) each re-export the functional options relevant to them
// as aliases of Option, so one option value - say WithMaxThreads(64) -
// is meaningful to any constructor and the four packages can never
// drift apart on defaults again (the seed had four divergent Options
// structs with subtly different zero-value semantics).
//
// Zero-value handling: Default() bakes in the paper's evaluation
// defaults; options overwrite fields directly. An option that would set
// a nonsensical value clamps instead of failing, matching the seed's
// constructors.
package config

// Config carries every knob any algorithm in the repository accepts.
// Constructors read the fields they understand and ignore the rest,
// which is what lets one option set configure all six stack algorithms
// through the registry.
type Config struct {
	// Aggregators is K, the number of SEC shards (also the funnel's
	// aggregator count). The paper's evaluation defaults to 2.
	Aggregators int

	// MaxThreads bounds *concurrently live* handles. With Close-based
	// slot recycling this is a concurrency bound, not a lifetime bound:
	// any number of handles may be registered over time as long as at
	// most MaxThreads are open at once.
	MaxThreads int

	// FreezerSpin is the freezer's batch-growing pre-freeze backoff in
	// spin iterations (§3.1 of the paper; also the funnel delegate's
	// spin). Default 128; 0 disables it and keeps batches small. Under
	// AdaptiveSpin this is the ceiling of the per-aggregator
	// controller rather than the value every freeze pays.
	FreezerSpin int

	// FreezerSpinSet records that WithFreezerSpin was given explicitly,
	// for packages whose own default differs from the shared 128 (the
	// pool's shards default to 0 - its sharding already spreads
	// contention - and must not silently inherit the stack's spin).
	FreezerSpinSet bool

	// AdaptiveSpin replaces the fixed FreezerSpin with a per-aggregator
	// controller driven by the batch-degree EWMA: the effective spin
	// grows toward FreezerSpin while batches freeze well-filled and
	// decays toward zero while they freeze near-empty.
	AdaptiveSpin bool

	// NoElimination disables in-batch elimination (the SEC ablation).
	NoElimination bool

	// Recycle reuses popped SEC stack nodes, protected by hazard
	// pointers, instead of allocating a fresh node per push.
	Recycle bool

	// Adaptive enables contention adaptivity in the batch-protocol
	// structures (SEC stack, deque, funnel): the solo fast path when an
	// aggregator's recent batch degree is ~1, and dynamic shard scaling
	// between 1 and Aggregators for partitioned engines.
	Adaptive bool

	// BatchRecycle retires frozen batches to per-aggregator free lists
	// for reuse, so the steady-state freeze path allocates nothing.
	BatchRecycle bool

	// CollectMetrics enables the batching/elimination/combining degree
	// counters behind the paper's Tables 1-3.
	CollectMetrics bool

	// Shards is the pool's SEC-stack count.
	Shards int

	// PutOverflow is the pool's Put-overflow threshold: after this many
	// consecutive home-shard solo-CAS losses, a Put sweeps the foreign
	// shards with the TryPush steal primitive (one splice CAS, no batch
	// protocol) before falling back to the home shard's full protocol -
	// the push-side twin of Get's peek-then-steal. 0 disables overflow
	// and pins every Put to its home shard. Default 2.
	PutOverflow int

	// ElasticShards enables the pool's elastic shard controller: the
	// live shard window [0, liveK) moves within the constructed Shards
	// maximum, grown under sustained bidirectional steal-miss pressure
	// (or a high external load signal) and shrunk - through a
	// drain/fence protocol - while every live shard sits in solo mode
	// with idle steal counters. Implies Adaptive for the pool's shards
	// (the shrink signal reads their solo-mode bits). Default off.
	ElasticShards bool

	// ElasticPeriod is the elastic controller's op cadence: each pool
	// handle counts its own Put/Get calls and runs one controller pass
	// per ElasticPeriod ops (amortized, try-locked - no background
	// goroutine). Smaller periods converge faster but evaluate signals
	// over noisier windows. Values < 1 clamp to 1. Default 2048.
	ElasticPeriod int

	// Capacity bounds the queue's element count. A full queue rejects
	// TryEnqueue/Enqueue with false rather than blocking, matching the
	// non-blocking half of a buffered channel's contract. Default 1024.
	Capacity int

	// Initial is the funnel counter's starting value.
	Initial int64

	// BackoffMin/BackoffMax bound Treiber's randomized exponential
	// backoff window in spin iterations.
	BackoffMin, BackoffMax int

	// ElimArraySize and ElimPatience configure the EB stack's
	// elimination array and per-visit patience.
	ElimArraySize, ElimPatience int

	// CombinerRounds is the FC combiner's publication-list scan count
	// per lock acquisition.
	CombinerRounds int

	// ServeLimit is CC-Synch's H: requests served per combiner session.
	ServeLimit int

	// TimestampDelay is the TS-interval stack's interval-widening spin
	// between a push's two clock reads.
	TimestampDelay int

	// ImplicitAffinity enables the per-P tier of the implicit-session
	// layer behind the handle-free APIs: an implicit op on P k reuses
	// P k's cached handle (procpin identity, as sync.Pool does
	// internally), so it keeps hitting the same aggregator's solo
	// scratch batch. Off, every implicit op borrows through the spill
	// pool alone - the pre-affinity behavior. Default on.
	ImplicitAffinity bool

	// AnnounceEvery is the Done cadence the implicit-session layer
	// sets on its cached handles: the session's hazard slot is
	// published once per AnnounceEvery implicit ops instead of per op
	// (amortized announcement). 1 restores the eager per-op clear;
	// values < 1 are treated as 1. The cost of a larger cadence is
	// that an idle cached session may pin one retired batch per
	// structure until its window closes - the same bound the hazard
	// scan tolerates for a session parked mid-operation. Default 8
	// (one hazard clear per reclaim-epoch's worth of ops).
	AnnounceEvery int
}

// Option mutates a Config. The public packages alias this type, so
// options compose across packages.
type Option func(*Config)

// Default returns the paper-evaluation defaults shared by every
// constructor.
func Default() Config {
	return Config{
		Aggregators:    2,
		MaxThreads:     256,
		FreezerSpin:    128,
		Shards:         4,
		PutOverflow:    2,
		Capacity:       1024,
		ElasticPeriod:  2048,
		BackoffMin:     4,
		BackoffMax:     1024,
		ElimArraySize:  16,
		ElimPatience:   64,
		CombinerRounds: 2,
		ServeLimit:     64,
		TimestampDelay: 32,

		ImplicitAffinity: true,
		AnnounceEvery:    8,
	}
}

// Resolve applies opts over the defaults.
func Resolve(opts []Option) Config {
	c := Default()
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// WithAggregators sets K, the shard count of SEC stacks and funnels
// (clamped to at least 1).
func WithAggregators(k int) Option {
	return func(c *Config) { c.Aggregators = max(k, 1) }
}

// WithMaxThreads bounds concurrently live handles (clamped to at
// least 1).
func WithMaxThreads(n int) Option {
	return func(c *Config) { c.MaxThreads = max(n, 1) }
}

// WithFreezerSpin sets the batch-growing backoff in spin iterations; 0
// (or less) disables it.
func WithFreezerSpin(s int) Option {
	return func(c *Config) {
		c.FreezerSpin = max(s, 0)
		c.FreezerSpinSet = true
	}
}

// WithAdaptiveSpin toggles the adaptive freezer backoff: instead of
// every freeze paying the fixed WithFreezerSpin delay, each aggregator
// tunes its own pre-freeze spin on the batch-degree EWMA - growing
// toward the configured value while batches freeze well-filled
// (waiting is buying batch degree) and decaying toward zero while
// they freeze near-empty (waiting is pure latency). WithFreezerSpin
// remains the ceiling; with a ceiling of 0 there is nothing to adapt.
func WithAdaptiveSpin(on bool) Option {
	return func(c *Config) { c.AdaptiveSpin = on }
}

// WithoutElimination disables in-batch elimination, leaving freezing
// and combining intact (the paper's ablation).
func WithoutElimination() Option {
	return func(c *Config) { c.NoElimination = true }
}

// WithRecycling reuses popped SEC stack nodes instead of allocating a
// fresh node per push and leaving the popped one to the garbage
// collector; hazard pointers keep a node from reuse while another
// session may still read it.
func WithRecycling() Option {
	return func(c *Config) { c.Recycle = true }
}

// WithAdaptive toggles contention adaptivity in the batch-protocol
// structures: the solo fast path (one direct apply when the recent
// batch degree is ~1, falling back to the full protocol on contention)
// and dynamic shard scaling between 1 and Aggregators.
func WithAdaptive(on bool) Option {
	return func(c *Config) { c.Adaptive = on }
}

// WithBatchRecycling toggles batch recycling: frozen batches retire to
// per-aggregator free lists - slot arrays and payloads reused - so the
// steady-state freeze path allocates nothing.
func WithBatchRecycling(on bool) Option {
	return func(c *Config) { c.BatchRecycle = on }
}

// WithMetrics enables degree counters (batching, elimination,
// combining).
func WithMetrics() Option {
	return func(c *Config) { c.CollectMetrics = true }
}

// WithShards sets the pool's shard count (clamped to at least 1).
func WithShards(n int) Option {
	return func(c *Config) { c.Shards = max(n, 1) }
}

// WithPutOverflow sets the pool's Put-overflow threshold: how many
// consecutive home-shard solo-CAS losses a handle tolerates before its
// Puts start sweeping foreign shards with the TryPush steal primitive.
// 0 disables overflow (every Put stays on its home shard); negative
// values clamp to 0.
func WithPutOverflow(threshold int) Option {
	return func(c *Config) { c.PutOverflow = max(threshold, 0) }
}

// WithElasticShards toggles the pool's elastic shard controller:
// WithShards becomes a ceiling and the live shard window grows under
// sustained steal-miss pressure and shrinks (drain, then fence) when
// every live shard runs solo with idle steal counters. Implies
// WithAdaptive(true) for the pool's shards.
func WithElasticShards(on bool) Option {
	return func(c *Config) { c.ElasticShards = on }
}

// WithElasticPeriod sets the elastic controller's op cadence: one
// controller pass per k Put/Get calls of each handle. Values below 1
// clamp to 1.
func WithElasticPeriod(k int) Option {
	return func(c *Config) { c.ElasticPeriod = max(k, 1) }
}

// WithCapacity bounds the queue's element count (clamped to at least
// 1). Enqueues into a full queue return false instead of blocking.
func WithCapacity(n int) Option {
	return func(c *Config) { c.Capacity = max(n, 1) }
}

// WithInitial sets the funnel counter's starting value.
func WithInitial(v int64) Option {
	return func(c *Config) { c.Initial = v }
}

// WithBackoff sets Treiber's exponential backoff window.
func WithBackoff(min, max int) Option {
	return func(c *Config) {
		if min > 0 && max >= min {
			c.BackoffMin, c.BackoffMax = min, max
		}
	}
}

// WithElimArray sets the EB stack's elimination array size and
// patience.
func WithElimArray(size, patience int) Option {
	return func(c *Config) {
		if size > 0 {
			c.ElimArraySize = size
		}
		if patience > 0 {
			c.ElimPatience = patience
		}
	}
}

// WithCombinerRounds sets the FC combiner's scan rounds per lock hold.
func WithCombinerRounds(r int) Option {
	return func(c *Config) {
		if r > 0 {
			c.CombinerRounds = r
		}
	}
}

// WithServeLimit sets CC-Synch's per-combiner serve limit H.
func WithServeLimit(h int) Option {
	return func(c *Config) {
		if h > 0 {
			c.ServeLimit = h
		}
	}
}

// WithTimestampDelay sets the TS-interval push's interval-widening
// delay; 0 (or less) disables it.
func WithTimestampDelay(d int) Option {
	return func(c *Config) { c.TimestampDelay = max(d, 0) }
}

// WithImplicitSessions toggles the per-P affinity tier of the
// implicit-session layer behind the handle-free APIs (default on).
// Off, implicit ops fall back to the spill-pool-only borrow path.
func WithImplicitSessions(on bool) Option {
	return func(c *Config) { c.ImplicitAffinity = on }
}

// WithAnnounceEvery sets the implicit sessions' amortized-announcement
// cadence: the hazard slot is published once per k implicit ops. 1
// restores the eager per-op announce; values below 1 are clamped to 1.
func WithAnnounceEvery(k int) Option {
	return func(c *Config) { c.AnnounceEvery = max(k, 1) }
}
