package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dynatune/internal/server"
	"dynatune/internal/wireclient"
)

// opAt is the i-th generated operation of a seed: a key drawn uniformly
// from the keyspace and whether it is a put (putPct percent are).
func opAt(seed uint64, i int, putPct int) (key int, put bool) {
	x := splitmix64(seed*0x9e3779b97f4a7c15 ^ uint64(i))
	return int(x % numKeys), int((x>>32)%100) < putPct
}

// recorder collects the outcome of every request whose start — its due
// time in an open loop, its send in a closed loop — falls in [from, to).
// The window is cut into equal slices; the end-to-end figures are medians
// over slices, so one stall moves one slice, not the run.
type recorder struct {
	from, to time.Time
	slice    time.Duration

	mu        sync.Mutex
	puts      []float64   // ms
	gets      []float64   // ms
	late      []float64   // ms the open-loop generator sent after the due time
	lat       [][]float64 // per slice of start time: successful latencies (ms)
	completed []int       // per slice of completion time: successes
	attempted int
	failed    int
	firstFail error
}

func newRecorder(from, to time.Time, slices int) *recorder {
	return &recorder{
		from: from, to: to, slice: to.Sub(from) / time.Duration(slices),
		lat: make([][]float64, slices), completed: make([]int, slices),
	}
}

// sliceOf returns the slice holding t, or -1 outside the window.
func (r *recorder) sliceOf(t time.Time) int {
	if t.Before(r.from) || !t.Before(r.to) {
		return -1
	}
	return min(int(t.Sub(r.from)/r.slice), len(r.lat)-1)
}

// done records one request that started at start; err is nil on success.
func (r *recorder) done(put bool, start time.Time, err error) {
	now := time.Now()
	ms := float64(now.Sub(start)) / float64(time.Millisecond)
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := r.sliceOf(now); i >= 0 && err == nil {
		r.completed[i]++
	}
	i := r.sliceOf(start)
	if i < 0 {
		return
	}
	r.attempted++
	switch {
	case err != nil:
		r.failed++
		if r.firstFail == nil {
			r.firstFail = err
		}
		return
	case put:
		r.puts = append(r.puts, ms)
	default:
		r.gets = append(r.gets, ms)
	}
	r.lat[i] = append(r.lat[i], ms)
}

func (r *recorder) lateBy(due, sent time.Time) {
	if r.sliceOf(due) < 0 {
		return
	}
	r.mu.Lock()
	r.late = append(r.late, float64(sent.Sub(due))/float64(time.Millisecond))
	r.mu.Unlock()
}

// all returns every successful latency, puts and gets together.
func (r *recorder) all() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(append([]float64(nil), r.puts...), r.gets...)
}

// recorders fans each outcome out to several windows (a traced run
// compares its untraced and traced halves).
type recorders []*recorder

func (rs recorders) done(put bool, start time.Time, err error) {
	for _, r := range rs {
		r.done(put, start, err)
	}
}

func (rs recorders) lateBy(due, sent time.Time) {
	for _, r := range rs {
		r.lateBy(due, sent)
	}
}

// respErr folds a response status into an error: anything but OK fails,
// a not-found on a preloaded key included.
func respErr(resp wireclient.Response, err error) error {
	if err != nil {
		return err
	}
	switch resp.Status {
	case wireclient.StatusOK:
		return nil
	case wireclient.StatusErr:
		return fmt.Errorf("%s: %s", resp.Status, resp.Err)
	default:
		return fmt.Errorf("%s", resp.Status)
	}
}

// issue sends one generated op through the fleet's client, reports it to
// rec timed from start, and passes its outcome to then. Gets are checked
// against the model.
func issue(f *fleet, rec recorders, key int, put bool, start time.Time, then func(error)) {
	if put {
		seq := f.model.send(key)
		req := &wireclient.Request{Op: wireclient.OpPut, Key: keyNames[key], Value: makeValue(key, seq)}
		f.client.Do(req, func(resp wireclient.Response, err error) {
			err = respErr(resp, err)
			if err == nil {
				f.model.acked(key, seq)
			}
			rec.done(true, start, err)
			then(err)
		})
		return
	}
	readStart := f.model.now()
	f.client.Do(&wireclient.Request{Op: wireclient.OpGet, Key: keyNames[key]}, func(resp wireclient.Response, err error) {
		err = respErr(resp, err)
		if err == nil {
			// A violation fails the run through the model; the request
			// itself still counts as served.
			f.model.checkRead(key, resp.Value, readStart) //nolint:errcheck // recorded in the model
		}
		rec.done(false, start, err)
		then(err)
	})
}

// openLoop sends ops of seed at a fixed rate from now until until,
// whether or not earlier ones returned, and waits for all of them. Each
// op is timed from its due time, so a stall charges every op it delays.
func openLoop(f *fleet, rec recorders, seed uint64, rate float64, putPct int, until time.Time) {
	interval := time.Duration(float64(time.Second) / rate)
	var inflight sync.WaitGroup
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(until) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		rec.lateBy(due, time.Now())
		key, put := opAt(seed, i, putPct)
		inflight.Add(1)
		issue(f, rec, key, put, due, func(error) { inflight.Done() })
	}
	inflight.Wait()
}

// closedLoop keeps depth puts in flight until until: each completion
// sends the next op from its callback, so no goroutine is needed per
// slot. Each op is timed from its send.
func closedLoop(f *fleet, rec recorders, seed uint64, depth int, until time.Time) {
	var next atomic.Int64
	var inflight sync.WaitGroup
	var slot func()
	slot = func() {
		if !time.Now().Before(until) {
			inflight.Done()
			return
		}
		key, _ := opAt(seed, int(next.Add(1)-1), 100)
		issue(f, rec, key, true, time.Now(), func(err error) {
			if err != nil {
				// A failed connection calls back synchronously; resend from
				// a timer so failures cannot recurse without bound.
				time.AfterFunc(time.Millisecond, slot)
				return
			}
			slot()
		})
	}
	inflight.Add(depth)
	for i := 0; i < depth; i++ {
		slot()
	}
	inflight.Wait()
}

// counters is a snapshot of the process and of one node's layers,
// differenced over a measured interval.
type counters struct {
	at        time.Time
	cpu       time.Duration // process user+sys
	gcCPU     float64       // Go runtime GC CPU seconds
	usedCPU   float64       // Go runtime non-idle CPU seconds
	allocs    uint64        // Go heap bytes allocated
	committed uint64
	applies   uint64
	batch     server.BatchStats
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

// snapshot reads the process counters and the given node's counters.
func snapshot(s *server.Server) counters {
	c := counters{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	ss := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		ss[i].Name = n
	}
	metrics.Read(ss)
	c.gcCPU = ss[0].Value.Float64()
	c.usedCPU = ss[1].Value.Float64() - ss[2].Value.Float64()
	c.allocs = ss[3].Value.Uint64()
	if s != nil {
		st := s.Status()
		c.committed = st.Committed
		c.applies = s.Store().Applies()
		c.batch = s.BatchStats()
	}
	return c
}

// delta is the activity between two snapshots of the same node.
type delta struct {
	secs               float64
	cpu                time.Duration
	gcCPU, usedCPU     float64
	allocs             uint64
	committed, applies uint64
	ops, batches       uint64
	windowFlushes      uint64
	clientOps, entries uint64
}

func diff(a, b counters) delta {
	return delta{
		secs:          b.at.Sub(a.at).Seconds(),
		cpu:           b.cpu - a.cpu,
		gcCPU:         b.gcCPU - a.gcCPU,
		usedCPU:       b.usedCPU - a.usedCPU,
		allocs:        b.allocs - a.allocs,
		committed:     b.committed - a.committed,
		applies:       b.applies - a.applies,
		ops:           b.batch.Ops - a.batch.Ops,
		batches:       b.batch.Batches - a.batch.Batches,
		windowFlushes: b.batch.FlushWindow - a.batch.FlushWindow,
		clientOps:     b.batch.ClientOps - a.batch.ClientOps,
		entries:       b.batch.Entries - a.batch.Entries,
	}
}

func (d *delta) add(o delta) {
	d.secs += o.secs
	d.cpu += o.cpu
	d.gcCPU += o.gcCPU
	d.usedCPU += o.usedCPU
	d.allocs += o.allocs
	d.committed += o.committed
	d.applies += o.applies
	d.ops += o.ops
	d.batches += o.batches
	d.windowFlushes += o.windowFlushes
	d.clientOps += o.clientOps
	d.entries += o.entries
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
