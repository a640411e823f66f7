package server

import (
	"fmt"
	"testing"
	"time"

	"dynatune/internal/kv"
	"dynatune/internal/raft"
	"dynatune/internal/storage"
	"dynatune/internal/transport"
)

// startPersistedCluster boots n servers each backed by a WAL in its own
// temp directory, returning the servers, their address map and WAL dirs so
// individual nodes can be stopped and restarted.
func startPersistedCluster(t *testing.T, n int) ([]*Server, map[raft.ID]transport.PeerAddr, []string) {
	t.Helper()
	addrs := make(map[raft.ID]transport.PeerAddr, n)
	for i := 0; i < n; i++ {
		addrs[raft.ID(i+1)] = transport.PeerAddr{TCP: reserveAddr(t, "tcp"), UDP: reserveAddr(t, "udp")}
	}
	dirs := make([]string, n)
	srvs := make([]*Server, n)
	for i := 0; i < n; i++ {
		dirs[i] = t.TempDir()
		srvs[i] = startPersistedNode(t, raft.ID(i+1), addrs, dirs[i])
	}
	return srvs, addrs, dirs
}

// startPersistedNode opens (or reopens) the WAL in dir and starts a node
// recovering from whatever the WAL holds.
func startPersistedNode(t *testing.T, id raft.ID, addrs map[raft.ID]transport.PeerAddr, dir string) *Server {
	t.Helper()
	wal, restored, err := storage.Open(dir, storage.WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Start(Config{
		ID:        id,
		Listen:    addrs[id],
		Peers:     addrs,
		Tuner:     fastTuner(),
		Persister: wal,
		Restored:  restored,
	})
	if err != nil {
		wal.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Stop()
		wal.Close()
	})
	return s
}

func TestRealClusterRestartFromWAL(t *testing.T) {
	srvs, addrs, dirs := startPersistedCluster(t, 3)
	lead := waitLeader(t, srvs, 10*time.Second)
	for i := 0; i < 5; i++ {
		if err := lead.Propose(kv.Command{
			Op: kv.OpPut, Client: 1, Seq: uint64(i + 1),
			Key: fmt.Sprintf("k%d", i), Value: []byte(fmt.Sprintf("v%d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Pick a follower, wait until it applied, then kill its process.
	var victim *Server
	var victimIdx int
	for i, s := range srvs {
		if s != lead {
			victim, victimIdx = s, i
			break
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := victim.Get("k4"); ok && string(v) == "v4" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never applied the preload")
		}
		time.Sleep(10 * time.Millisecond)
	}
	victimID := victim.cfg.ID
	victim.Stop() // process death; WAL files survive in dirs[victimIdx]

	// Commit more while it is down.
	lead = waitLeader(t, srvs, 10*time.Second)
	if err := lead.Propose(kv.Command{Op: kv.OpPut, Client: 1, Seq: 6, Key: "during", Value: []byte("down")}); err != nil {
		t.Fatal(err)
	}

	// Restart from the same WAL directory and require full convergence.
	s2 := startPersistedNode(t, victimID, addrs, dirs[victimIdx])
	deadline = time.Now().Add(10 * time.Second)
	for {
		v1, ok1 := s2.Get("k0")
		v2, ok2 := s2.Get("during")
		if ok1 && string(v1) == "v0" && ok2 && string(v2) == "down" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted node did not converge: k0=%q(%v) during=%q(%v)", v1, ok1, v2, ok2)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Its recovered term must be at least the one it saw before stopping.
	if got := s2.Status().Term; got == 0 {
		t.Fatal("restarted node reports term 0 — WAL recovery did not engage")
	}
}
