package transport

import (
	"sync"
	"testing"
	"time"

	"dynatune/internal/raft"
	"dynatune/internal/wire"
)

// pairUp starts two transports wired to each other on loopback ephemeral
// ports and returns them plus their inboxes.
func pairUp(t *testing.T) (*Transport, *Transport, chan raft.Message, chan raft.Message) {
	t.Helper()
	in1 := make(chan raft.Message, 256)
	in2 := make(chan raft.Message, 256)
	t1, err := Start(Config{
		ID:      1,
		Listen:  PeerAddr{TCP: "127.0.0.1:0", UDP: "127.0.0.1:0"},
		Handler: func(m raft.Message) { in1 <- m },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { t1.Close() })
	t2, err := Start(Config{
		ID:      2,
		Listen:  PeerAddr{TCP: "127.0.0.1:0", UDP: "127.0.0.1:0"},
		Handler: func(m raft.Message) { in2 <- m },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { t2.Close() })
	t1.SetPeer(2, t2.Addrs())
	t2.SetPeer(1, t1.Addrs())
	return t1, t2, in1, in2
}

func recvOne(t *testing.T, ch chan raft.Message) raft.Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(3 * time.Second):
		t.Fatal("timed out waiting for message")
		return raft.Message{}
	}
}

func TestTCPDelivery(t *testing.T) {
	t1, _, _, in2 := pairUp(t)
	want := raft.Message{
		Type: raft.MsgApp, From: 1, To: 2, Term: 5, Index: 3, LogTerm: 4, Commit: 2,
		Entries: []raft.Entry{{Term: 5, Index: 4, Data: []byte("payload")}},
	}
	t1.Send(want)
	got := recvOne(t, in2)
	if got.Type != raft.MsgApp || got.Term != 5 || len(got.Entries) != 1 || string(got.Entries[0].Data) != "payload" {
		t.Fatalf("got %+v", got)
	}
}

// A message too large to frame must be dropped on its own: the peer's
// queue keeps flowing, so the small MsgApp queued behind it arrives.
func TestOversizedFrameDoesNotWedgeQueue(t *testing.T) {
	t1, _, _, in2 := pairUp(t)
	t1.Send(raft.Message{Type: raft.MsgSnap, From: 1, To: 2, Term: 3, Snap: make([]byte, wire.MaxFrame+1)})
	t1.Send(raft.Message{Type: raft.MsgApp, From: 1, To: 2, Term: 3, Index: 7})
	select {
	case got := <-in2:
		if got.Type != raft.MsgApp || got.Index != 7 {
			t.Fatalf("got %v index %d, want the MsgApp at index 7", got.Type, got.Index)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("MsgApp queued behind an oversized frame never arrived")
	}
}

func TestUDPHeartbeatDelivery(t *testing.T) {
	t1, t2, in1, in2 := pairUp(t)
	hb := raft.Message{
		Type: raft.MsgHeartbeat, From: 1, To: 2, Term: 9, Commit: 1,
		HB: raft.HeartbeatMeta{Seq: 77, SendTime: 123, RTT: 456},
	}
	t1.Send(hb)
	got := recvOne(t, in2)
	if got.HB.Seq != 77 || got.HB.SendTime != 123 {
		t.Fatalf("heartbeat meta lost: %+v", got.HB)
	}
	// Response comes back over UDP too.
	t2.Send(raft.Message{
		Type: raft.MsgHeartbeatResp, From: 2, To: 1, Term: 9,
		HBResp: raft.HeartbeatRespMeta{EchoTime: 123, Interval: 999},
	})
	resp := recvOne(t, in1)
	if resp.HBResp.EchoTime != 123 || resp.HBResp.Interval != 999 {
		t.Fatalf("resp meta lost: %+v", resp.HBResp)
	}
}

func TestManyMessagesInOrderOverTCP(t *testing.T) {
	t1, _, _, in2 := pairUp(t)
	const n = 500
	for i := 0; i < n; i++ {
		t1.Send(raft.Message{Type: raft.MsgApp, From: 1, To: 2, Term: uint64(i)})
	}
	for i := 0; i < n; i++ {
		m := recvOne(t, in2)
		if m.Term != uint64(i) {
			t.Fatalf("out of order: got term %d at position %d", m.Term, i)
		}
	}
}

func TestConcurrentSenders(t *testing.T) {
	t1, _, _, in2 := pairUp(t)
	const per = 100
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				t1.Send(raft.Message{Type: raft.MsgAppResp, From: 1, To: 2, Index: uint64(i)})
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 8*per; i++ {
		recvOne(t, in2)
	}
}

func TestUnknownPeerDropped(t *testing.T) {
	t1, _, _, _ := pairUp(t)
	t1.Send(raft.Message{Type: raft.MsgApp, From: 1, To: 99})
	t1.Send(raft.Message{Type: raft.MsgHeartbeat, From: 1, To: 99})
	if t1.Drops() != 2 {
		t.Fatalf("drops = %d, want 2", t1.Drops())
	}
}

func TestMisaddressedFrameIgnored(t *testing.T) {
	t1, t2, _, in2 := pairUp(t)
	// Register node 2's real addresses under the bogus id 7, then send a
	// frame addressed To=7: it lands on node 2's listener, which must
	// discard it rather than deliver it to the handler.
	t1.SetPeer(7, t2.Addrs())
	t1.Send(raft.Message{Type: raft.MsgApp, From: 1, To: 7})
	t1.Send(raft.Message{Type: raft.MsgHeartbeat, From: 1, To: 7})
	select {
	case m := <-in2:
		t.Fatalf("misaddressed frame delivered: %+v", m)
	case <-time.After(300 * time.Millisecond):
	}
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	t1, t2, _, in2 := pairUp(t)
	t1.Send(raft.Message{Type: raft.MsgApp, From: 1, To: 2, Term: 1})
	recvOne(t, in2)
	// Restart peer 2 on fresh ports.
	t2.Close()
	in2b := make(chan raft.Message, 16)
	t2b, err := Start(Config{
		ID:      2,
		Listen:  PeerAddr{TCP: "127.0.0.1:0", UDP: "127.0.0.1:0"},
		Handler: func(m raft.Message) { in2b <- m },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer t2b.Close()
	t1.SetPeer(2, t2b.Addrs())
	t1.Send(raft.Message{Type: raft.MsgApp, From: 1, To: 2, Term: 2})
	got := recvOne(t, in2b)
	if got.Term != 2 {
		t.Fatalf("term = %d", got.Term)
	}
}

func TestSendAfterBrokenConnRecovers(t *testing.T) {
	t1, t2, _, in2 := pairUp(t)
	t1.Send(raft.Message{Type: raft.MsgApp, From: 1, To: 2, Term: 1})
	recvOne(t, in2)
	// Break t1's outbound socket under it (close() would retire the conn
	// permanently — that is SetPeer/Close territory); the next send hits a
	// write error, queues, and the redialer must deliver it.
	t1.mu.Lock()
	oc := t1.conns[2]
	t1.mu.Unlock()
	oc.mu.Lock()
	oc.c.Close()
	oc.mu.Unlock()
	t1.Send(raft.Message{Type: raft.MsgApp, From: 1, To: 2, Term: 2})
	got := recvOne(t, in2)
	if got.Term != 2 {
		t.Fatalf("term after reconnect = %d", got.Term)
	}
	_ = t2
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Fatal("expected error without ID")
	}
	if _, err := Start(Config{ID: 1}); err == nil {
		t.Fatal("expected error without handler")
	}
	if _, err := Start(Config{ID: 1, Listen: PeerAddr{TCP: "256.0.0.1:1", UDP: "127.0.0.1:0"}, Handler: func(raft.Message) {}}); err == nil {
		t.Fatal("expected error for bad tcp address")
	}
}
