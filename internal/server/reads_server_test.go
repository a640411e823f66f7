package server

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dynatune/internal/kv"
	"dynatune/internal/raft"
)

func TestGetLinearizableOnRealNetwork(t *testing.T) {
	srvs := startClusterStatic(t, 3, fastTuner)
	lead := waitLeader(t, srvs, 10*time.Second)
	if err := lead.Propose(kv.Command{Op: kv.OpPut, Key: "lin", Value: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	// ReadIndex path.
	v, ok, err := lead.GetLinearizable("lin", false)
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("ReadIndex get: %q %v %v", v, ok, err)
	}
	// Lease path (falls back internally if the lease lapsed).
	v, ok, err = lead.GetLinearizable("lin", true)
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("lease get: %q %v %v", v, ok, err)
	}
	// Missing key: confirmed read, not found.
	_, ok, err = lead.GetLinearizable("absent", false)
	if err != nil || ok {
		t.Fatalf("absent key: ok=%v err=%v", ok, err)
	}
}

func TestGetLinearizableOnFollowerFails(t *testing.T) {
	srvs := startClusterStatic(t, 3, fastTuner)
	lead := waitLeader(t, srvs, 10*time.Second)
	for _, s := range srvs {
		if s == lead {
			continue
		}
		if _, _, err := s.GetLinearizable("x", false); !errors.Is(err, raft.ErrNotLeader) {
			t.Fatalf("follower linearizable get: err=%v, want ErrNotLeader", err)
		}
	}
}

func TestLinearizableReadAfterWriteRealTime(t *testing.T) {
	// Write-then-linearizable-read must always observe the write, repeated
	// across several rounds on a real (loopback) network.
	srvs := startClusterStatic(t, 3, fastTuner)
	lead := waitLeader(t, srvs, 10*time.Second)
	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("gen-%d", i)
		if err := lead.Propose(kv.Command{Op: kv.OpPut, Client: 3, Seq: uint64(i + 1), Key: "rw", Value: []byte(want)}); err != nil {
			t.Fatal(err)
		}
		v, ok, err := lead.GetLinearizable("rw", i%2 == 0)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("round %d: %q %v %v, want %q", i, v, ok, err, want)
		}
	}
}
