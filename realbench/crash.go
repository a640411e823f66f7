package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dynatune/internal/raft"
	"dynatune/internal/wireclient"
)

const (
	crashRate = 500.0                  // puts/s in a crash trial's stream
	crashPre  = 200 * time.Millisecond // stream time before the crash
	crashPost = 50 * time.Millisecond  // stream time after writes recover
	// crashLimit bounds both an op's retries (it then counts as failed)
	// and a trial's outage (the run then fails). Failovers that fall back
	// to the untuned 1 s timeout twice take over 3 s.
	crashLimit = 10 * time.Second
)

// trialResult is one leader crash: the stream's outcome and the failover
// timeline, every instant taken from the benchmark's own clock.
type trialResult struct {
	setup     time.Duration // boot → ready to crash, excluding CPU-lock waits
	ots       time.Duration // Stop() → first ack of a put scheduled after it
	detect    time.Duration // Stop() → first survivor election timeout
	elect     time.Duration // Stop() → new leader elected
	etMs      float64       // followers' highest Et when the leader stopped
	elections int           // elections in the trial the crash did not cause
	lat       []float64     // stream latencies (ms), from due time
	preLat    []float64     // latencies of the puts due before the crash
	late      []float64     // ms the generator sent after each due time
	secs      float64       // stream duration
	cpu       time.Duration // process CPU during the stream
	attempted int
	failed    int
	retries   int
	layers    delta // leader-side activity before the crash
	preCrash  int   // puts acknowledged before the crash
	traced    bool
}

// crashTrial streams retried puts at crashRate through f's Front, stops
// the leader after crashPre (once the followers' Et is tuned, when
// requireTuned), keeps streaming until a put scheduled after the stop is
// acknowledged, then checks every key through the new leader. With tr
// set, probes run against the old leader until the crash.
func crashTrial(f *fleet, seed uint64, trial int, requireTuned bool, tr *tracer) (trialResult, error) {
	var res trialResult
	leader, err := f.awaitLeader(5 * time.Second)
	if err != nil {
		return res, fmt.Errorf("crash trial: %w", err)
	}
	keys := rand.New(rand.NewSource(int64(splitmix64(seed ^ uint64(trial)<<20)))).Perm(numKeys)
	epoch := f.model.epoch

	var stopProbe chan struct{}
	var probeDone sync.WaitGroup
	if tr != nil {
		p, err := newProber(tr, f, leader, seed^uint64(trial))
		if err != nil {
			return res, err
		}
		res.traced = true
		stopProbe = make(chan struct{})
		probeDone.Add(1)
		go func() { defer probeDone.Done(); p.run(stopProbe) }()
	}

	t0 := time.Now()
	proc0 := snapshot(nil)
	before := snapshot(f.srvs[leader])
	var crashNs, recoverNs atomic.Int64 // since epoch; 0 = not yet
	crashErr := make(chan error, 1)
	victim := leader
	go func() {
		time.Sleep(crashPre)
		if requireTuned {
			if err := f.awaitTuned(5*time.Second, nil); err != nil {
				crashErr <- err
				return
			}
		}
		res.layers = diff(before, snapshot(f.srvs[leader]))
		if stopProbe != nil {
			close(stopProbe)
			probeDone.Wait()
		}
		// A spurious election during the stream moves the crash to
		// whoever leads now.
		if cur, ok := f.leader(); ok {
			victim = cur
		}
		res.etMs = maxOf(f.followerEts(victim))
		crashNs.Store(int64(time.Since(epoch)))
		f.stopNode(victim)
		crashErr <- nil
	}()

	var mu sync.Mutex
	var inflight sync.WaitGroup
	st := &stream{f: f, done: func(op *crashOp, err error) {
		if err == nil {
			f.model.acked(op.key, op.seq)
			now := int64(time.Since(epoch))
			if c := crashNs.Load(); c != 0 && op.dueNs > c {
				for r := recoverNs.Load(); r == 0 || now < r; r = recoverNs.Load() {
					if recoverNs.CompareAndSwap(r, now) {
						break
					}
				}
			}
			lat := float64(now-op.dueNs) / float64(time.Millisecond)
			mu.Lock()
			res.lat = append(res.lat, lat)
			if c := crashNs.Load(); c == 0 || op.dueNs < c {
				res.preLat = append(res.preLat, lat)
			}
			if crashNs.Load() == 0 {
				res.preCrash++
			}
			mu.Unlock()
		} else {
			mu.Lock()
			res.failed++
			mu.Unlock()
		}
		inflight.Done()
	}}
	interval := time.Duration(float64(time.Second) / crashRate)
	var crashDone bool
	// abort ends the trial early once the stream and the crash goroutine
	// have finished.
	abort := func(err error) (trialResult, error) {
		inflight.Wait()
		if !crashDone {
			<-crashErr
		}
		return res, err
	}
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := ms(time.Since(due))
		if !crashDone {
			select {
			case err := <-crashErr:
				crashDone = true
				if err != nil {
					return abort(err)
				}
			default:
			}
		}
		if r := recoverNs.Load(); r != 0 && time.Since(epoch) > time.Duration(r)+crashPost {
			break
		}
		if c := crashNs.Load(); c != 0 && time.Since(epoch) > time.Duration(c)+crashLimit {
			return abort(fmt.Errorf("crash trial: no write acknowledged %v after the crash", crashLimit))
		}
		if i >= numKeys {
			return abort(errors.New("crash trial: stream ran out of keys"))
		}
		k := keys[i]
		seq := f.model.send(k)
		op := &crashOp{
			req:   &wireclient.Request{Op: wireclient.OpPut, Key: keyNames[k], Value: makeValue(k, seq)},
			key:   k,
			seq:   seq,
			due:   due,
			dueNs: int64(due.Sub(epoch)),
		}
		inflight.Add(1)
		mu.Lock()
		res.attempted++
		res.late = append(res.late, late)
		mu.Unlock()
		st.send(op)
	}
	inflight.Wait()
	end := time.Now()
	res.retries = st.retries
	res.secs = end.Sub(t0).Seconds()
	res.cpu = snapshot(nil).cpu - proc0.cpu
	if !crashDone {
		if err := <-crashErr; err != nil {
			return res, err
		}
	}

	crashAt := epoch.Add(time.Duration(crashNs.Load()))
	res.ots = time.Duration(recoverNs.Load() - crashNs.Load())
	leaderID := raft.ID(victim + 1)
	detectAt, ok := f.events.first(raft.EventTimeout, crashAt, leaderID)
	if !ok {
		return res, errors.New("crash trial: no survivor timed out")
	}
	electAt, ok := f.events.first(raft.EventLeaderElected, crashAt, leaderID)
	if !ok {
		return res, errors.New("crash trial: no new leader")
	}
	res.detect = detectAt.Sub(crashAt)
	res.elect = electAt.Sub(crashAt)
	res.elections = f.events.count(raft.EventLeaderElected, t0, end) - 1
	return res, f.verify(false)
}

// crashOp is one put of a crash trial's stream.
type crashOp struct {
	req   *wireclient.Request
	key   int
	seq   uint64
	due   time.Time
	dueNs int64 // due, in model nanoseconds
}

// stream sends a trial's puts and retries the failed ones until each is
// acknowledged or crashLimit passes. Failed ops wait in a queue and one
// scout retries the oldest every millisecond, so an outage costs about
// one call per millisecond however many ops fall due in it; once the
// scout gets through, the rest are resent at once. Fresh ops are always
// sent at once, so the end of an outage is seen within a millisecond.
type stream struct {
	f    *fleet
	done func(op *crashOp, err error) // final outcome, once per op

	mu       sync.Mutex
	queue    []*crashOp
	scouting bool
	retries  int
}

func (s *stream) send(op *crashOp) {
	s.f.client.Do(op.req, func(resp wireclient.Response, err error) {
		if err = respErr(resp, err); err == nil || time.Since(op.due) > crashLimit {
			s.done(op, err)
			return
		}
		s.mu.Lock()
		s.queue = append(s.queue, op)
		idle := !s.scouting
		s.scouting = true
		s.mu.Unlock()
		if idle {
			time.AfterFunc(time.Millisecond, s.scout)
		}
	})
}

func (s *stream) scout() {
	s.mu.Lock()
	op := s.queue[0]
	s.queue = s.queue[1:]
	s.retries++
	s.mu.Unlock()
	s.f.client.Do(op.req, func(resp wireclient.Response, err error) {
		err = respErr(resp, err)
		if err != nil && time.Since(op.due) <= crashLimit {
			s.mu.Lock()
			s.queue = append([]*crashOp{op}, s.queue...)
			s.mu.Unlock()
			time.AfterFunc(time.Millisecond, s.scout)
			return
		}
		s.done(op, err)
		s.mu.Lock()
		rest := s.queue
		s.queue = nil
		s.scouting = false
		s.mu.Unlock()
		for _, r := range rest {
			s.send(r)
		}
	})
}
