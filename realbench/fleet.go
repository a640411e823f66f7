package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"dynatune/internal/dynatune"
	"dynatune/internal/raft"
	"dynatune/internal/server"
	"dynatune/internal/transport"
	"dynatune/internal/wireclient"
)

const (
	tunerStatic   = "static"
	tunerDynatune = "dynatune"

	fleetNodes = 3
	// fallbackEtMs is Dynatune's Et before it has measured enough.
	fallbackEtMs = 1000.0
	// batchWindow is the server group-commit window, the load fleet's
	// default (dynabench load -batch-window).
	batchWindow = 200 * time.Microsecond
)

// newTuner builds one node's tuner: the paper's "Raft" baseline (etcd's
// Et 1 s, h 100 ms) or Dynatune at the defaults cmd/dynatuned ships.
func newTuner(kind string) (raft.Tuner, error) {
	if kind == tunerStatic {
		return raft.NewStaticTuner(time.Second, 100*time.Millisecond), nil
	}
	return dynatune.NewTuner(dynatune.Options{})
}

// eventLog stamps every raft event with the benchmark's monotonic wall
// clock on receipt. raft.Event.Time is each node's own time since start,
// so events of different nodes cannot be compared through it.
type eventLog struct {
	mu     sync.Mutex
	events []stampedEvent
}

type stampedEvent struct {
	at time.Time
	ev raft.Event
}

// Trace implements raft.Tracer.
func (l *eventLog) Trace(ev raft.Event) {
	at := time.Now()
	l.mu.Lock()
	l.events = append(l.events, stampedEvent{at, ev})
	l.mu.Unlock()
}

// first returns the earliest event of kind after t from any node except
// skip (0 skips none).
func (l *eventLog) first(kind raft.EventKind, t time.Time, skip raft.ID) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.events {
		if e.ev.Kind == kind && e.at.After(t) && e.ev.Node != skip {
			return e.at, true
		}
	}
	return time.Time{}, false
}

// count returns how many events of kind fall in [from, to).
func (l *eventLog) count(kind raft.EventKind, from, to time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.ev.Kind == kind && !e.at.Before(from) && e.at.Before(to) {
			n++
		}
	}
	return n
}

// fleet is one loopback deployment: a 1 group × 3 node Raft fleet with
// binary APIs, a binary Front over it, and the benchmark's client.
type fleet struct {
	srvs   []*server.Server
	down   []bool
	front  *server.BinFront
	client *wireclient.Client
	events *eventLog
	model  *model
	bootAt time.Time
}

// bootFleet starts the nodes and the Front; it does not wait for a
// leader.
func bootFleet(tuner string, epoch time.Time) (*fleet, error) {
	lg := log.New(io.Discard, "", 0)
	f := &fleet{events: &eventLog{}, model: newModel(epoch), bootAt: time.Now()}
	peers, err := reservePeers(fleetNodes)
	if err != nil {
		return nil, err
	}
	bins := make([]string, 0, fleetNodes)
	for i := 1; i <= fleetNodes; i++ {
		t, err := newTuner(tuner)
		if err != nil {
			f.stop()
			return nil, err
		}
		s, err := server.Start(server.Config{
			ID:          raft.ID(i),
			Peers:       peers,
			Listen:      peers[raft.ID(i)],
			BinListen:   "127.0.0.1:0",
			Tuner:       t,
			Tracer:      f.events,
			Logger:      lg,
			BatchWindow: batchWindow,
		})
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		f.srvs = append(f.srvs, s)
		f.down = append(f.down, false)
		bins = append(bins, s.BinAddr())
	}
	f.front, err = server.StartBinFront("127.0.0.1:0", [][]string{bins}, wireclient.PoolConfig{}, lg)
	if err != nil {
		f.stop()
		return nil, fmt.Errorf("start front: %w", err)
	}
	// Two pipelined connections carry all of the workload's requests.
	f.client = wireclient.NewClient([]string{f.front.Addr()}, wireclient.PoolConfig{Size: 2})
	return f, nil
}

// leader returns the index of the live node that reports itself leader.
func (f *fleet) leader() (int, bool) {
	for i, s := range f.srvs {
		if !f.down[i] && s.Status().State == "leader" {
			return i, true
		}
	}
	return 0, false
}

// followers returns the live non-leader nodes' indexes.
func (f *fleet) followers(leader int) []int {
	var out []int
	for i := range f.srvs {
		if i != leader && !f.down[i] {
			out = append(out, i)
		}
	}
	return out
}

// awaitFirstWrite waits for a leader, then retries one put outside the
// keyspace until the fleet acknowledges it, and returns that instant: the
// end of the cold-start outage. Polling the nodes' status first keeps a
// booting fleet from loading the processor with doomed puts.
func (f *fleet) awaitFirstWrite(timeout time.Duration, quit <-chan struct{}) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	err := errors.New("no leader")
	for time.Now().Before(deadline) {
		if _, ok := f.leader(); ok {
			if err = f.client.Put("boot", []byte("ok")); err == nil {
				return time.Now(), nil
			}
		}
		select {
		case <-quit:
			return time.Time{}, errQuit
		case <-time.After(5 * time.Millisecond):
		}
	}
	return time.Time{}, fmt.Errorf("no write acknowledged within %v: %w", timeout, err)
}

// preload writes seq 1 of every key through the Front, pipelined. A put
// that fails — a spurious election can interrupt a Dynatune fleet — is
// resent (with the same value) for up to preloadRetry.
func (f *fleet) preload() error {
	const depth = 256
	const preloadRetry = 10 * time.Second
	sem := make(chan struct{}, depth)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	start := time.Now()
	for k := 0; k < numKeys; k++ {
		sem <- struct{}{}
		wg.Add(1)
		seq := f.model.send(k)
		req := &wireclient.Request{Op: wireclient.OpPut, Key: keyNames[k], Value: makeValue(k, seq)}
		var put func()
		put = func() {
			f.client.Do(req, func(resp wireclient.Response, err error) {
				err = respErr(resp, err)
				if err != nil && time.Since(start) < preloadRetry {
					time.AfterFunc(10*time.Millisecond, put)
					return
				}
				if err == nil {
					f.model.acked(k, seq)
				} else {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("preload %s: %w", keyNames[k], err)
					}
					mu.Unlock()
				}
				<-sem
				wg.Done()
			})
		}
		put()
	}
	wg.Wait()
	return firstErr
}

// verify reads every key through the Front and checks it against the
// model: each must hold a value the benchmark wrote and that no
// acknowledged later put superseded. It returns the first violation.
func (f *fleet) verify(corrupt bool) error {
	const chunk = 512
	for lo := 0; lo < numKeys; lo += chunk {
		var start int64
		var vals [][]byte
		var found []bool
		var err error
		// Reads are safe to resend; a leader change may fail a few.
		for try := 0; try < 100; try++ {
			start = f.model.now()
			if vals, found, err = f.client.MultiGet(keyNames[lo : lo+chunk]); err == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			return fmt.Errorf("final read: %w", err)
		}
		for i, v := range vals {
			k := lo + i
			if !found[i] {
				err := fmt.Errorf("final read: key %s missing", keyNames[k])
				f.model.violate(err)
				return err
			}
			if corrupt && k == lo {
				v = append([]byte(nil), v...)
				v[valueSize-1] ^= 0xff
			}
			if err := f.model.checkRead(k, v, start); err != nil {
				return err
			}
		}
	}
	return nil
}

// stopNode stops node i (the injected crash).
func (f *fleet) stopNode(i int) {
	f.down[i] = true
	f.srvs[i].Stop()
}

// stop tears everything down and waits for it.
func (f *fleet) stop() {
	if f.client != nil {
		f.client.Close()
	}
	if f.front != nil {
		f.front.Close()
	}
	for i, s := range f.srvs {
		if !f.down[i] {
			s.Stop()
		}
	}
}

// reservePeers picks free loopback ports for n nodes. They are released
// before the nodes bind them, a race that is harmless on loopback.
func reservePeers(n int) (map[raft.ID]transport.PeerAddr, error) {
	peers := map[raft.ID]transport.PeerAddr{}
	for i := 1; i <= n; i++ {
		tcp, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		udp, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			tcp.Close()
			return nil, err
		}
		peers[raft.ID(i)] = transport.PeerAddr{TCP: tcp.Addr().String(), UDP: udp.LocalAddr().String()}
		tcp.Close()
		udp.Close()
	}
	return peers, nil
}

// awaitLeader waits until a live node reports itself leader.
func (f *fleet) awaitLeader(timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for {
		if i, ok := f.leader(); ok {
			return i, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("no leader within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitTuned waits until every follower of the current leader runs a
// tuned Et, below Dynatune's fallback.
func (f *fleet) awaitTuned(timeout time.Duration, quit <-chan struct{}) error {
	deadline := time.Now().Add(timeout)
	for {
		if leader, ok := f.leader(); ok && maxOf(f.followerEts(leader)) < fallbackEtMs {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("followers not tuned within %v", timeout)
		}
		select {
		case <-quit:
			return errQuit
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// followerEts returns the election timeout base (ms) of each of
// leader's followers.
func (f *fleet) followerEts(leader int) []float64 {
	var ets []float64
	for _, i := range f.followers(leader) {
		ets = append(ets, f.srvs[i].Status().EtMs)
	}
	return ets
}

// errQuit reports a boot abandoned because the run ended.
var errQuit = errors.New("boot abandoned")

// readyFleet is a booted, preloaded fleet and its set-up measurements.
type readyFleet struct {
	f       *fleet
	setup   time.Duration // boot → ready, excluding waits for the CPU lock
	coldOTS time.Duration // boot → first acknowledged write
	err     error
}

// prepareFleet boots a fleet, waits for its first acknowledged write,
// preloads the keyspace under cpu (so that concurrent boots never load
// the processor during a measurement) and, with tuned, waits until the
// followers' Et is tuned.
func prepareFleet(tuner string, epoch time.Time, cpu *sync.Mutex, tuned bool, quit <-chan struct{}) readyFleet {
	f, err := bootFleet(tuner, epoch)
	for try := 1; err != nil && try < 3; try++ {
		// A reserved port can be taken before its node binds it.
		f, err = bootFleet(tuner, epoch)
	}
	if err != nil {
		return readyFleet{err: err}
	}
	rf := readyFleet{f: f}
	fail := func(err error) readyFleet {
		f.stop()
		return readyFleet{err: err}
	}
	first, err := f.awaitFirstWrite(15*time.Second, quit)
	if err != nil {
		return fail(err)
	}
	rf.coldOTS = first.Sub(f.bootAt)
	lock := time.Now()
	cpu.Lock()
	waited := time.Since(lock)
	err = f.preload()
	cpu.Unlock()
	if err != nil {
		return fail(err)
	}
	if tuned {
		if err := f.awaitTuned(15*time.Second, quit); err != nil {
			return fail(err)
		}
	}
	rf.setup = time.Since(f.bootAt) - waited
	return rf
}
