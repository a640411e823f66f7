package wireclient

import (
	"net"
	"sync/atomic"
	"testing"
)

// fakeMember is a binary stand-in for one group member with a scriptable
// leader view, so redirect scenarios are deterministic instead of
// depending on real election timing.
type fakeMember struct {
	addr   string
	leader atomic.Bool
	hint   atomic.Uint64 // node id carried by StatusNotLeader
	reqs   atomic.Int64  // every request received
	writes atomic.Int64  // puts served as leader
}

func newFakeMember(t *testing.T, leader bool, hint uint64) *fakeMember {
	t.Helper()
	m := &fakeMember{}
	m.leader.Store(leader)
	m.hint.Store(hint)
	m.addr = startStub(t, func(r Request) Response {
		m.reqs.Add(1)
		if !m.leader.Load() {
			return Response{Status: StatusNotLeader, Leader: m.hint.Load()}
		}
		m.writes.Add(1)
		return Response{}
	}).ln.Addr().String()
	return m
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func putVia(t *testing.T, gc *GroupClient) {
	t.Helper()
	resp, err := gc.Call(&Request{Op: OpPut, Key: "k", Value: []byte("v")})
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("put: status %s (hint %d)", resp.Status, resp.Leader)
	}
}

// Two members with mutually stale hints must not trap the walk in a
// redirect loop: the client lands on the real leader, which neither stale
// hint pointed at.
func TestGroupClientBreaksRedirectLoop(t *testing.T) {
	// Node 1 thinks node 2 leads; node 2 thinks node 1 leads; node 3 is
	// the actual leader no hint mentions.
	m1 := newFakeMember(t, false, 2)
	m2 := newFakeMember(t, false, 1)
	m3 := newFakeMember(t, true, 3)
	gc := NewGroupClient([]string{m1.addr, m2.addr, m3.addr}, PoolConfig{Size: 1})
	defer gc.Close()

	putVia(t, gc)
	if m3.writes.Load() != 1 {
		t.Fatalf("leader served %d writes, want 1", m3.writes.Load())
	}
	if n := m1.reqs.Load() + m2.reqs.Load(); n > 2 {
		t.Fatalf("stale members answered %d requests; the walk looped", n)
	}
}

// Hints that lead nowhere — a member that is down, or "no leader known"
// (0) — must not stall the walk while a live leader goes untried.
func TestGroupClientDeadEndHint(t *testing.T) {
	for _, tc := range []struct {
		name string
		hint uint64
	}{
		{"dead member", 2},
		{"no leader known", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m1 := newFakeMember(t, false, tc.hint)
			m3 := newFakeMember(t, true, 3)
			gc := NewGroupClient([]string{m1.addr, deadAddr(t), m3.addr}, PoolConfig{Size: 1})
			defer gc.Close()

			putVia(t, gc)
			if m3.writes.Load() != 1 {
				t.Fatalf("leader served %d writes, want 1", m3.writes.Load())
			}
		})
	}
}

// Leadership moves between requests: the client follows the fresh hint
// to the new leader and caches it for the next call.
func TestGroupClientFollowsHintAcrossLeaderChange(t *testing.T) {
	m1 := newFakeMember(t, true, 1)
	m2 := newFakeMember(t, false, 1)
	m3 := newFakeMember(t, false, 1)
	gc := NewGroupClient([]string{m1.addr, m2.addr, m3.addr}, PoolConfig{Size: 1})
	defer gc.Close()

	putVia(t, gc)
	if m1.writes.Load() != 1 {
		t.Fatalf("initial leader writes: %d", m1.writes.Load())
	}

	// Leader moves 1 → 3; every member knows and hints correctly.
	m1.leader.Store(false)
	for _, m := range []*fakeMember{m1, m2, m3} {
		m.hint.Store(3)
	}
	m3.leader.Store(true)

	putVia(t, gc)
	if m3.writes.Load() != 1 {
		t.Fatalf("new leader writes: %d", m3.writes.Load())
	}
	if m2.reqs.Load() != 0 {
		t.Fatal("client walked to node 2 instead of following the hint")
	}

	// The client cached the new leader: the next put goes straight there.
	before := m1.reqs.Load()
	putVia(t, gc)
	if m3.writes.Load() != 2 || m1.reqs.Load() != before {
		t.Fatal("client did not cache the new leader")
	}
}
