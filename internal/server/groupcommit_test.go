package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dynatune/internal/kv"
	"dynatune/internal/raft"
	"dynatune/internal/transport"
)

// TestGroupCommitCoalesces drives many concurrent writers at a leader
// booted on the default Config and checks that it group-commits: raft
// entries proposed stay well below client commands accepted, with
// nothing lost or reordered past the idempotence table.
func TestGroupCommitCoalesces(t *testing.T) {
	srvs := startClusterWith(t, 3, func(*Config) {})
	lead := waitLeader(t, srvs, 10*time.Second)

	const writers, per = 16, 25
	errs := make(chan error, writers*per)
	var wg sync.WaitGroup
	for c := 0; c < writers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				errs <- lead.Propose(kv.Command{
					Op: kv.OpPut, Client: uint64(c + 1), Seq: uint64(i + 1),
					Key:   fmt.Sprintf("w%d-k%d", c, i),
					Value: []byte(fmt.Sprintf("v%d", i)),
				})
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := lead.BatchStats()
	if st.ClientOps != writers*per {
		t.Fatalf("client ops = %d, want %d", st.ClientOps, writers*per)
	}
	if st.Entries >= st.ClientOps {
		t.Fatalf("no coalescing: %d entries for %d client ops", st.Entries, st.ClientOps)
	}
	t.Logf("group commit: %d ops in %d entries (amp %.3f, mean depth %.1f, max %d)",
		st.ClientOps, st.Entries, st.ProposeAmp(), st.MeanDepth(), st.MaxDepth)

	for c := 0; c < writers; c++ {
		key := fmt.Sprintf("w%d-k%d", c, per-1)
		if v, ok := lead.Get(key); !ok || string(v) != fmt.Sprintf("v%d", per-1) {
			t.Fatalf("%s = %q, %v", key, v, ok)
		}
		if got := lead.Store().LastSeq(uint64(c + 1)); got != per {
			t.Fatalf("client %d lastSeq = %d, want %d", c+1, got, per)
		}
	}
}

// TestBatchAbortOnLeaderChange blackholes a leader's outbound
// replication so its in-flight batch can never commit, and requires that
// the leadership change fails every waiter promptly — no request rides
// out the full ProposeTimeout — and that client retries through the new
// leader converge without double-applying.
func TestBatchAbortOnLeaderChange(t *testing.T) {
	srvs := startClusterWith(t, 3, func(*Config) {})
	lead := waitLeader(t, srvs, 10*time.Second)

	// Blackhole leader → followers: its appends vanish, while follower →
	// leader traffic (the higher-term campaign) still lands.
	dead := transport.PeerAddr{TCP: "127.0.0.1:1", UDP: "127.0.0.1:1"}
	for _, s := range srvs {
		if s != lead {
			lead.SetPeer(s.cfg.ID, dead)
		}
	}

	const n = 8
	type putRes struct {
		i   int
		err error
	}
	start := time.Now()
	results := make(chan putRes, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			err := lead.Propose(kv.Command{
				Op: kv.OpPut, Client: 99, Seq: uint64(i + 1),
				Key: fmt.Sprintf("abort-k%d", i), Value: []byte(fmt.Sprintf("v%d", i)),
			})
			results <- putRes{i, err}
		}(i)
	}
	for i := 0; i < n; i++ {
		r := <-results
		if r.err == nil {
			t.Fatalf("put %d committed through a blackholed leader", r.i)
		}
		if !errors.Is(r.err, raft.ErrNotLeader) {
			t.Fatalf("put %d failed with %v, want ErrNotLeader so clients re-route", r.i, r.err)
		}
	}
	// Default ProposeTimeout is 5s; the abort must beat it by a wide
	// margin (step-down needs roughly one 150ms election timeout).
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("batch abort took %v — waiters rode out the timeout", el)
	}

	// Heal, then retry the SAME (client, seq) commands through the new
	// leader: they must all land exactly once.
	for _, s := range srvs {
		if s != lead {
			lead.SetPeer(s.cfg.ID, s.Addrs())
		}
	}
	var newLead *Server
	deadline := time.Now().Add(10 * time.Second)
	for newLead == nil {
		if time.Now().After(deadline) {
			t.Fatal("no new leader after healing")
		}
		for _, s := range srvs {
			if s != lead && s.Status().State == "leader" {
				newLead = s
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i := 0; i < n; i++ {
		err := newLead.Propose(kv.Command{
			Op: kv.OpPut, Client: 99, Seq: uint64(i + 1),
			Key: fmt.Sprintf("abort-k%d", i), Value: []byte(fmt.Sprintf("v%d", i)),
		})
		if err != nil {
			t.Fatalf("retry %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("abort-k%d", i)
		if v, ok := newLead.Get(key); !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s = %q, %v after retry", key, v, ok)
		}
	}
	if got := newLead.Store().LastSeq(99); got != n {
		t.Fatalf("lastSeq = %d, want %d", got, n)
	}
}

// TestHeldBatchBoundedByProposeTimeout requires the group-commit hold to
// end within ProposeTimeout when the commit index never advances. The
// leader's outbound replication is blackholed, so its first entry stays
// uncommitted and every later Propose is held behind it. A 2 s election
// timeout keeps the leader in office (check-quorum and the followers'
// campaigns both wait out an election timeout) well past the 300 ms
// ProposeTimeout, so only the hold's own bound can end the wait. A put
// that joins the hold near its end must still get its own full
// ProposeTimeout, not the remainder of the hold's.
func TestHeldBatchBoundedByProposeTimeout(t *testing.T) {
	const timeout = 300 * time.Millisecond
	srvs := startClusterWith(t, 3, func(c *Config) {
		c.ProposeTimeout = timeout
		c.Tuner = raft.NewStaticTuner(2*time.Second, 50*time.Millisecond)
	})
	lead := waitLeader(t, srvs, 15*time.Second)
	if err := lead.Propose(kv.Command{Op: kv.OpPut, Key: "warm", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	dead := transport.PeerAddr{TCP: "127.0.0.1:1", UDP: "127.0.0.1:1"}
	for _, s := range srvs {
		if s != lead {
			lead.SetPeer(s.cfg.ID, dead)
		}
	}

	type putRes struct {
		err error
		el  time.Duration
	}
	propose := func(key string, out chan<- putRes) {
		start := time.Now()
		err := lead.Propose(kv.Command{Op: kv.OpPut, Key: key, Value: []byte("v")})
		out <- putRes{err, time.Since(start)}
	}
	// The first put becomes the uncommitted tail.
	base := lead.BatchStats().Entries
	tail := make(chan putRes, 1)
	go propose("tail", tail)
	for deadline := time.Now().Add(time.Second); lead.BatchStats().Entries == base; {
		if time.Now().After(deadline) {
			t.Fatal("the tail put was never proposed")
		}
		time.Sleep(time.Millisecond)
	}
	// Everything after it is held.
	const n = 4
	held := make(chan putRes, n)
	for i := 0; i < n; i++ {
		go propose(fmt.Sprintf("held-%d", i), held)
	}
	late := make(chan putRes, 1)
	time.Sleep(timeout * 3 / 4)
	go propose("late", late)
	const bound = timeout + timeout/2
	for i := 0; i < n; i++ {
		r := <-held
		if !errors.Is(r.err, lead.errProposeTO) {
			t.Fatalf("held put resolved with %v, want the propose timeout", r.err)
		}
		if r.el > bound {
			t.Fatalf("held put resolved after %v, want ≤ %v", r.el, bound)
		}
	}
	if r := <-tail; !errors.Is(r.err, lead.errProposeTO) || r.el > bound {
		t.Fatalf("tail put: %v after %v", r.err, r.el)
	}
	if r := <-late; !errors.Is(r.err, lead.errProposeTO) || r.el < timeout || r.el > bound {
		t.Fatalf("late put: %v after %v, want the propose timeout after [%v, %v]", r.err, r.el, timeout, bound)
	}
	// One entry per hold at most: the held puts did not each become an
	// entry of their own behind the stalled tail.
	if st := lead.BatchStats(); st.Entries-base-1 > 2 {
		t.Fatalf("%d entries proposed behind the stalled tail, want ≤ 2", st.Entries-base-1)
	}
	if st := lead.Status(); st.State != "leader" {
		t.Fatalf("leader stepped down (%s) before the hold expired; the test proves nothing", st.State)
	}
}

// BenchmarkProposeAllocs measures per-propose allocations on a
// single-node cluster (commit is local, so this isolates the waiter +
// shared-deadline-heap path that replaced one time.After per call).
func BenchmarkProposeAllocs(b *testing.B) {
	addr := transport.PeerAddr{TCP: reserveAddr(b, "tcp"), UDP: reserveAddr(b, "udp")}
	s, err := Start(Config{
		ID:     1,
		Listen: addr,
		Peers:  map[raft.ID]transport.PeerAddr{1: addr},
		Tuner:  fastTuner(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for s.Status().State != "leader" {
		if time.Now().After(deadline) {
			b.Fatal("single node never became leader")
		}
		time.Sleep(10 * time.Millisecond)
	}
	val := []byte("value")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Propose(kv.Command{Op: kv.OpPut, Client: 1, Seq: uint64(i + 1), Key: "bench", Value: val}); err != nil {
			b.Fatal(err)
		}
	}
}
