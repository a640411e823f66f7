// Real cluster: boots three in-process dynatuned nodes on loopback with
// the genuine UDP/TCP transport and wall-clock timers, replicates a few
// keys through the leader, drives a pipelined workload through the binary
// Front, kills the leader, and times the wall-clock failover — the
// non-simulated counterpart of the quickstart.
//
//	go run ./examples/realcluster
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"dynatune/internal/dynatune"
	"dynatune/internal/kv"
	"dynatune/internal/raft"
	"dynatune/internal/server"
	"dynatune/internal/transport"
	"dynatune/internal/wireclient"
)

func main() {
	log.SetFlags(0)

	// Reserve three TCP/UDP address pairs on loopback.
	addrs := map[raft.ID]transport.PeerAddr{}
	for id := raft.ID(1); id <= 3; id++ {
		addrs[id] = transport.PeerAddr{TCP: reserve("tcp"), UDP: reserve("udp")}
	}

	// Loopback RTT is tiny, so scale the fallback parameters down to keep
	// the demo snappy; the tuner will still shrink Et to its MinEt floor.
	mkTuner := func() raft.Tuner {
		return dynatune.MustNew(dynatune.Options{
			FallbackEt:  300 * time.Millisecond,
			FallbackH:   30 * time.Millisecond,
			MinListSize: 5,
			MinEt:       25 * time.Millisecond,
			MinH:        2 * time.Millisecond,
		})
	}

	servers := map[raft.ID]*server.Server{}
	for id := raft.ID(1); id <= 3; id++ {
		s, err := server.Start(server.Config{
			ID:         id,
			Peers:      addrs,
			Listen:     addrs[id],
			HTTPListen: "127.0.0.1:0",
			BinListen:  "127.0.0.1:0",
			Tuner:      mkTuner(),
			// The demo kills a node, so suppress the transport's
			// connection-refused drop logs.
			Logger: log.New(io.Discard, "", 0),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer s.Stop()
		servers[id] = s
		fmt.Printf("node %d up: raft %s, bin %s, status http://%s/status\n", id, s.Addrs().TCP, s.BinAddr(), s.HTTPAddr())
	}

	lead := waitLeader(servers)
	fmt.Printf("\nleader elected: node %d\n", lead.Status().ID)

	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("city-%d", i)
		if err := lead.Propose(kv.Command{Op: kv.OpPut, Client: 1, Seq: uint64(i + 1),
			Key: key, Value: []byte("value")}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("replicated 5 keys through the real transport")

	// Stand a sharded binary Front over the group (one group here) and
	// pipeline a burst of puts and gets through ONE TCP connection: the
	// requests coalesce into batched writes and complete out of order,
	// demuxed by request id.
	binAddrs := make([]string, 0, 3)
	for id := raft.ID(1); id <= 3; id++ {
		binAddrs = append(binAddrs, servers[id].BinAddr())
	}
	bf, err := server.StartBinFront("127.0.0.1:0", [][]string{binAddrs},
		wireclient.PoolConfig{Size: 2}, log.New(io.Discard, "", 0))
	if err != nil {
		log.Fatal(err)
	}
	defer bf.Close()
	conn, err := wireclient.Dial(bf.Addr(), 2*time.Second, wireclient.ConnConfig{})
	if err != nil {
		log.Fatal(err)
	}
	const burst = 200
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < burst; i++ {
		wg.Add(1)
		req := wireclient.Request{Op: wireclient.OpPut,
			Key: fmt.Sprintf("burst-%03d", i), Value: []byte("v")}
		if i%2 == 1 {
			req = wireclient.Request{Op: wireclient.OpGet, Key: fmt.Sprintf("burst-%03d", i-1)}
		}
		conn.Do(&req, func(resp wireclient.Response, err error) {
			defer wg.Done()
			if err != nil {
				log.Fatalf("pipelined request: %v", err)
			}
		})
	}
	wg.Wait()
	elapsed := time.Since(t0)
	conn.Close()
	fmt.Printf("pipelined %d binary requests on one connection in %v (%.0f req/s)\n",
		burst, elapsed.Round(time.Millisecond), burst/elapsed.Seconds())

	// Give the tuner a moment, then show what it measured on a follower.
	time.Sleep(time.Second)
	for id, s := range servers {
		st := s.Status()
		if st.State == "follower" {
			fmt.Printf("node %d tuned Et: %.1fms (fallback was 300ms — loopback RTT is ~0.05ms)\n", id, st.EtMs)
			break
		}
	}

	// Kill the leader, measure wall-clock failover.
	leadID := lead.Status().ID
	fmt.Printf("\nstopping leader node %d...\n", leadID)
	start := time.Now()
	lead.Stop()
	delete(servers, leadID)
	newLead := waitLeader(servers)
	fmt.Printf("node %d took over after %v (wall clock)\n", newLead.Status().ID, time.Since(start).Round(time.Millisecond))

	// The data survived the failover.
	if v, ok := newLead.Get("city-0"); ok {
		fmt.Printf("city-0 = %q on the new leader — state intact\n", v)
	}
}

func waitLeader(servers map[raft.ID]*server.Server) *server.Server {
	for {
		for _, s := range servers {
			if s.Status().State == "leader" {
				return s
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func reserve(network string) string {
	if network == "tcp" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer pc.Close()
	return pc.LocalAddr().String()
}
