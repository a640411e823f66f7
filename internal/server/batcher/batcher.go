// Package batcher implements server-side group commit for the real
// serving path: a propose batcher that coalesces concurrent client
// commands into one multi-op raft entry, plus the shared commit-waiter
// machinery — a resolve-once Waiter and a deadline heap driven by a
// single reused timer — that replaces the per-request `time.After`
// allocation on every propose and linearizable read.
//
// The batcher has no timer. Load sets the batch size: the first op of a
// forming batch asks the owner to Cut it (Config.Schedule), and the owner
// cuts from its own event loop when its pipeline is ready — at once when
// idle, or once the previous entry commits when busy. Everything that
// arrives in between rides in the same batch. A fixed window would cost
// more than it says: Go sleeps sub-millisecond timers in epoll_wait with
// a 1 ms timeout, so a 200 µs window holds an idle request for about
// 1 ms.
//
// The batcher itself is runtime-agnostic: it hands finished batches to
// its owner and never touches the raft node, so it is testable without a
// cluster and reusable by any front that funnels commands into a single
// propose loop.
package batcher

import (
	"sync"
	"time"

	"dynatune/internal/kv"
)

// Defaults for the batch caps.
const (
	DefaultMaxOps   = 128
	DefaultMaxBytes = 256 << 10
)

// FlushReason says why a batch left the accumulator.
type FlushReason uint8

const (
	// FlushCut: the owner's clock cut the batch (Cut).
	FlushCut FlushReason = iota
	// FlushOps: the op-count cap filled.
	FlushOps
	// FlushBytes: the byte cap filled.
	FlushBytes
	// FlushDrain: Drain closed the batcher with ops still queued.
	FlushDrain
)

func (r FlushReason) String() string {
	switch r {
	case FlushCut:
		return "cut"
	case FlushOps:
		return "ops"
	case FlushBytes:
		return "bytes"
	case FlushDrain:
		return "drain"
	default:
		return "unknown"
	}
}

// Op is one queued proposal: the command, the waiter its client blocks
// on, and the time by which the owner must resolve it. The batcher only
// carries Deadline; the owner enforces it.
type Op struct {
	Cmd      kv.Command
	W        *Waiter
	Deadline time.Time
}

// Config tunes a Batcher.
type Config struct {
	// MaxOps flushes a batch early at this many ops (default 128).
	MaxOps int
	// MaxBytes flushes early once the encoded payload estimate passes
	// this (default 256 KiB) — a batch must stay well under the wire
	// frame cap.
	MaxBytes int
	// Schedule asks the owner to call Cut from its event loop. It is
	// called WITHOUT the batcher lock, once per forming batch, by the Add
	// that opened it; it must not block.
	Schedule func()
	// Flush receives each batch a cap cuts early, from the Add that
	// filled it. It is called WITHOUT the batcher lock.
	Flush func(ops []Op, reason FlushReason)
}

// Stats counts batching activity. Snapshot via Batcher.Stats.
type Stats struct {
	Ops      uint64 `json:"ops"`     // commands accepted
	Batches  uint64 `json:"batches"` // flushes
	MaxDepth int    `json:"max_depth"`
	// FlushWindow counts batches cut by the owner's loop/commit clock
	// (FlushCut); the name predates the clock, when a timer cut them.
	FlushWindow uint64 `json:"flush_window"`
	FlushOps    uint64 `json:"flush_ops"`
	FlushBytes  uint64 `json:"flush_bytes"`
	FlushDrain  uint64 `json:"flush_drain"`
}

// MeanDepth is ops per batch.
func (s Stats) MeanDepth() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Ops) / float64(s.Batches)
}

// Batcher accumulates ops and flushes them as batches. Safe for
// concurrent Add from many client goroutines.
type Batcher struct {
	cfg Config

	mu        sync.Mutex
	ops       []Op
	bytes     int
	closed    bool
	closedErr error
	stats     Stats
}

// New builds a Batcher. cfg.Schedule and cfg.Flush must be set.
func New(cfg Config) *Batcher {
	if cfg.MaxOps <= 0 {
		cfg.MaxOps = DefaultMaxOps
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.Schedule == nil || cfg.Flush == nil {
		panic("batcher: Config.Schedule and Config.Flush are required")
	}
	return &Batcher{cfg: cfg}
}

// opBytes estimates c's encoded footprint inside a batch payload.
func opBytes(c kv.Command) int {
	return 4 + 1 + 8 + 8 + 4 + len(c.Key) + 4 + len(c.Value)
}

// Add queues op. It leaves with its batch when the owner cuts it or a
// cap fills — whichever comes first. After Close, op.W resolves
// immediately with the error Drain closed the batcher with.
func (b *Batcher) Add(op Op) {
	b.mu.Lock()
	if b.closed {
		err := b.closedErr
		b.mu.Unlock()
		op.W.Resolve(err)
		return
	}
	b.ops = append(b.ops, op)
	b.bytes += opBytes(op.Cmd)
	b.stats.Ops++
	var (
		flush    []Op
		reason   FlushReason
		schedule bool
	)
	switch {
	case len(b.ops) >= b.cfg.MaxOps:
		flush, reason = b.take(), FlushOps
	case b.bytes >= b.cfg.MaxBytes:
		flush, reason = b.take(), FlushBytes
	case len(b.ops) == 1:
		schedule = true
	}
	if flush != nil {
		b.note(flush, reason)
	}
	b.mu.Unlock()
	if flush != nil {
		b.cfg.Flush(flush, reason)
	}
	if schedule {
		b.cfg.Schedule()
	}
}

// Cut detaches the forming batch for the owner to propose (nil when
// empty). A Cut with nothing queued is harmless: a cap may have flushed
// the batch its Schedule call announced.
func (b *Batcher) Cut() []Op {
	b.mu.Lock()
	defer b.mu.Unlock()
	ops := b.take()
	if len(ops) > 0 {
		b.note(ops, FlushCut)
	}
	return ops
}

// take detaches the accumulated batch (b.mu held).
func (b *Batcher) take() []Op {
	ops := b.ops
	b.ops = nil
	b.bytes = 0
	return ops
}

// note records a flush in the stats (b.mu held).
func (b *Batcher) note(ops []Op, reason FlushReason) {
	b.stats.Batches++
	if len(ops) > b.stats.MaxDepth {
		b.stats.MaxDepth = len(ops)
	}
	switch reason {
	case FlushCut:
		b.stats.FlushWindow++
	case FlushOps:
		b.stats.FlushOps++
	case FlushBytes:
		b.stats.FlushBytes++
	case FlushDrain:
		b.stats.FlushDrain++
	}
}

// Drain closes the batcher for shutdown: queued ops resolve with err
// instead of flushing, and later Adds resolve immediately with err. err
// must be non-nil.
func (b *Batcher) Drain(err error) {
	b.mu.Lock()
	ops := b.take()
	b.closed = true
	b.closedErr = err
	if len(ops) > 0 {
		b.note(ops, FlushDrain)
	}
	b.mu.Unlock()
	for _, op := range ops {
		op.W.Resolve(err)
	}
}

// Stats snapshots the counters.
func (b *Batcher) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}
