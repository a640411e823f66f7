package batcher

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynatune/internal/kv"
)

type flushRec struct {
	mu      sync.Mutex
	batches [][]Op
	reasons []FlushReason
}

func (f *flushRec) flush(ops []Op, reason FlushReason) {
	f.mu.Lock()
	f.batches = append(f.batches, ops)
	f.reasons = append(f.reasons, reason)
	f.mu.Unlock()
}

// depths returns each recorded batch's op count.
func (f *flushRec) depths() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := make([]int, len(f.batches))
	for i, b := range f.batches {
		d[i] = len(b)
	}
	return d
}

// holding builds a batcher whose owner is busy: Schedule only counts the
// cuts asked for, and the test releases the hold by calling Cut itself.
func holding(cfg Config, rec *flushRec) (*Batcher, *atomic.Int32) {
	var asks atomic.Int32
	cfg.Schedule = func() { asks.Add(1) }
	cfg.Flush = rec.flush
	return New(cfg), &asks
}

func put(key string) kv.Command {
	return kv.Command{Op: kv.OpPut, Key: key, Value: []byte("v")}
}

// An idle owner cuts as soon as it is asked: the op reaches the flusher
// before Add returns, with no timer in between.
func TestIdleAddCutsAtOnce(t *testing.T) {
	rec := &flushRec{}
	var b *Batcher
	b = New(Config{
		Schedule: func() { rec.flush(b.Cut(), FlushCut) },
		Flush:    rec.flush,
	})
	b.Add(Op{Cmd: put("k"), W: NewWaiter()})
	if d := rec.depths(); len(d) != 1 || d[0] != 1 {
		t.Fatalf("batch depths after one idle Add = %v, want [1]", d)
	}
	b.Add(Op{Cmd: put("k2"), W: NewWaiter()})
	if d := rec.depths(); len(d) != 2 || d[1] != 1 {
		t.Fatalf("batch depths after a second idle Add = %v, want [1 1]", d)
	}
	if got := b.Stats(); got.Batches != 2 || got.FlushWindow != 2 {
		t.Fatalf("stats = %+v", got)
	}
}

// Ops added while the owner holds the batch ask for one cut between them
// and leave as one batch, in arrival order, when the hold is released.
func TestWindowFlushCoalesces(t *testing.T) {
	rec := &flushRec{}
	b, asks := holding(Config{}, rec)
	for i := 0; i < 5; i++ {
		b.Add(Op{Cmd: put(fmt.Sprintf("k%d", i)), W: NewWaiter()})
	}
	if n := asks.Load(); n != 1 {
		t.Fatalf("5 ops into one forming batch asked for %d cuts, want 1", n)
	}
	if d := rec.depths(); len(d) != 0 {
		t.Fatalf("held ops reached the flusher: %v", d)
	}
	ops := b.Cut()
	if len(ops) != 5 {
		t.Fatalf("released batch holds %d ops, want 5", len(ops))
	}
	for i, op := range ops {
		if want := fmt.Sprintf("k%d", i); op.Cmd.Key != want {
			t.Fatalf("op %d = %s, want %s", i, op.Cmd.Key, want)
		}
	}
	if got := b.Stats(); got.Ops != 5 || got.Batches != 1 || got.MaxDepth != 5 || got.FlushWindow != 1 {
		t.Fatalf("stats = %+v", got)
	}
	// The released batcher is empty; a spare Cut records nothing, and the
	// next op opens a new batch that asks again.
	if ops := b.Cut(); ops != nil {
		t.Fatalf("second Cut returned %d ops", len(ops))
	}
	b.Add(Op{Cmd: put("k5"), W: NewWaiter()})
	if n := asks.Load(); n != 2 {
		t.Fatalf("cut requests = %d after a new batch opened, want 2", n)
	}
	if got := b.Stats(); got.Batches != 1 {
		t.Fatalf("empty Cut counted as a batch: %+v", got)
	}
}

func TestOpsCapFlushesEarly(t *testing.T) {
	rec := &flushRec{}
	b, asks := holding(Config{MaxOps: 3}, rec)
	for i := 0; i < 7; i++ {
		b.Add(Op{Cmd: put(fmt.Sprintf("k%d", i)), W: NewWaiter()})
	}
	// 7 ops, cap 3, owner holding: two full batches left inline, one op
	// still forms.
	if d := rec.depths(); len(d) != 2 || d[0] != 3 || d[1] != 3 {
		t.Fatalf("batch depths = %v, want [3 3]", d)
	}
	if rec.reasons[0] != FlushOps || rec.reasons[1] != FlushOps {
		t.Fatalf("reasons = %v", rec.reasons)
	}
	// Each cap flush emptied the batcher, so ops 0, 3 and 6 each opened
	// a batch and asked for a cut.
	if n := asks.Load(); n != 3 {
		t.Fatalf("cut requests = %d, want 3", n)
	}
}

func TestBytesCapFlushesEarly(t *testing.T) {
	rec := &flushRec{}
	b, _ := holding(Config{MaxBytes: 200}, rec)
	big := kv.Command{Op: kv.OpPut, Key: "k", Value: make([]byte, 80)}
	b.Add(Op{Cmd: big, W: NewWaiter()})
	b.Add(Op{Cmd: big, W: NewWaiter()})
	if d := rec.depths(); len(d) != 1 || d[0] != 2 {
		t.Fatalf("batch depths = %v, want [2]", d)
	}
	if rec.reasons[0] != FlushBytes {
		t.Fatalf("reason = %v, want bytes", rec.reasons[0])
	}
}

func TestDrainWithErrorAbortsAndCloses(t *testing.T) {
	rec := &flushRec{}
	b, _ := holding(Config{}, rec)
	w1 := NewWaiter()
	b.Add(Op{Cmd: put("a"), W: w1})
	boom := errors.New("leadership lost")
	b.Drain(boom)
	select {
	case err := <-w1.C():
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("queued waiter never resolved on drain")
	}
	// Post-close Adds resolve immediately with the drain error.
	w2 := NewWaiter()
	b.Add(Op{Cmd: put("b"), W: w2})
	select {
	case err := <-w2.C():
		if !errors.Is(err, boom) {
			t.Fatalf("post-close err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("post-close Add never resolved")
	}
	if d := rec.depths(); len(d) != 0 {
		t.Fatal("aborted batch must not reach Flush")
	}
}

func TestConcurrentAddAccountsEveryOp(t *testing.T) {
	var flushed atomic.Uint64
	flush := func(ops []Op, _ FlushReason) {
		flushed.Add(uint64(len(ops)))
		for _, op := range ops {
			op.W.Resolve(nil)
		}
	}
	var b *Batcher
	b = New(Config{MaxOps: 16, Flush: flush, Schedule: func() {
		go func() { flush(b.Cut(), FlushCut) }()
	}})
	const gs, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w := NewWaiter()
				b.Add(Op{Cmd: put(fmt.Sprintf("g%d-%d", g, i)), W: w})
				<-w.C()
			}
		}(g)
	}
	wg.Wait()
	if got := flushed.Load(); got != gs*per {
		t.Fatalf("flushed %d ops, want %d", got, gs*per)
	}
	st := b.Stats()
	if st.Ops != gs*per {
		t.Fatalf("stats.Ops = %d", st.Ops)
	}
	if st.Batches == 0 || st.Batches > st.Ops {
		t.Fatalf("stats.Batches = %d", st.Batches)
	}
}

func TestWaiterResolveOnce(t *testing.T) {
	w := NewWaiter()
	if !w.Resolve(nil) {
		t.Fatal("first resolve lost")
	}
	if w.Resolve(errors.New("late")) {
		t.Fatal("second resolve won")
	}
	if err := <-w.C(); err != nil {
		t.Fatalf("delivered %v, want the first resolution", err)
	}
	if !w.Resolved() {
		t.Fatal("not marked resolved")
	}
}

func TestDeadlineHeapExpiresInOrder(t *testing.T) {
	var h DeadlineHeap
	base := time.Now()
	errTO := errors.New("timed out")
	ws := make([]*Waiter, 5)
	// Push out of order; expiry must honor deadline order.
	for _, i := range []int{3, 0, 4, 1, 2} {
		ws[i] = NewWaiter()
		h.Push(ws[i], base.Add(time.Duration(i)*time.Millisecond), errTO)
	}
	if next := h.Next(); !next.Equal(base) {
		t.Fatalf("next = %v, want base", next)
	}
	// Expire through 2ms: waiters 0..2 time out, 3..4 stay.
	next := h.Expire(base.Add(2 * time.Millisecond))
	if !next.Equal(base.Add(3 * time.Millisecond)) {
		t.Fatalf("next after expire = %v", next)
	}
	for i := 0; i < 3; i++ {
		if !ws[i].Resolved() {
			t.Fatalf("waiter %d not expired", i)
		}
	}
	for i := 3; i < 5; i++ {
		if ws[i].Resolved() {
			t.Fatalf("waiter %d expired early", i)
		}
	}
	// Resolve 3 early: the sweep reclaims it without delivering a timeout,
	// and the next deadline is 4's.
	ws[3].Resolve(nil)
	if next := h.Expire(base.Add(2 * time.Millisecond)); !next.Equal(base.Add(4 * time.Millisecond)) {
		t.Fatalf("next after early resolve = %v", next)
	}
	if err := <-ws[3].C(); err != nil {
		t.Fatalf("early-resolved waiter got %v", err)
	}
	// Drain the rest.
	if next := h.Expire(base.Add(time.Minute)); !next.IsZero() {
		t.Fatalf("non-zero next on empty heap: %v", next)
	}
	if h.Len() != 0 {
		t.Fatalf("len = %d", h.Len())
	}
	if err := <-ws[4].C(); !errors.Is(err, errTO) {
		t.Fatalf("expired waiter got %v", err)
	}
}
