package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"testing"
	"time"

	"dynatune/internal/raft"
	"dynatune/internal/server"
	"dynatune/internal/transport"
)

// cluster is three in-process nodes on loopback. Node 1 has a 1-minute
// election timeout, so it never leads during a test: the endpoint list
// always starts at a follower and every leader-only command must follow
// the not-leader hint.
type cluster struct {
	srvs  []*server.Server
	eps   string   // -endpoints value: binary addresses in node-ID order
	https []string // HTTP /status addresses
}

func startCluster(t *testing.T) *cluster {
	t.Helper()
	peers := map[raft.ID]transport.PeerAddr{}
	for id := raft.ID(1); id <= 3; id++ {
		peers[id] = transport.PeerAddr{TCP: reserve(t, "tcp"), UDP: reserve(t, "udp")}
	}
	c := &cluster{}
	var bins []string
	for id := raft.ID(1); id <= 3; id++ {
		et := 150 * time.Millisecond
		if id == 1 {
			et = time.Minute
		}
		s, err := server.Start(server.Config{
			ID:         id,
			Peers:      peers,
			Listen:     peers[id],
			HTTPListen: "127.0.0.1:0",
			BinListen:  "127.0.0.1:0",
			Tuner:      raft.NewStaticTuner(et, 15*time.Millisecond),
			Logger:     log.New(io.Discard, "", 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Stop)
		c.srvs = append(c.srvs, s)
		bins = append(bins, s.BinAddr())
		c.https = append(c.https, s.HTTPAddr())
	}
	c.eps = strings.Join(bins, ",")
	c.leader(t)
	return c
}

// leader waits for and returns the elected leader.
func (c *cluster) leader(t *testing.T) *server.Server {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		for _, s := range c.srvs {
			if s.Status().State == "leader" {
				return s
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("no leader within 10s")
	return nil
}

func reserve(t *testing.T, network string) string {
	t.Helper()
	if network == "tcp" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	return pc.LocalAddr().String()
}

// dynactl runs one command line and returns its trimmed output.
func dynactl(args ...string) (string, error) {
	var out bytes.Buffer
	err := run(args, &out)
	return strings.TrimSpace(out.String()), err
}

func TestClientFallsThroughToLeader(t *testing.T) {
	c := startCluster(t)
	if st := c.srvs[0].Status().State; st != "follower" {
		t.Fatalf("node 1 is %s, want follower", st)
	}
	if out, err := dynactl("-endpoints", c.eps, "put", "k", "v"); err != nil || out != "OK" {
		t.Fatalf("put via follower endpoint: %q %v", out, err)
	}
	if v, ok := c.leader(t).Get("k"); !ok || string(v) != "v" {
		t.Fatal("write did not reach the leader")
	}
}

func TestClientPutGetDelete(t *testing.T) {
	c := startCluster(t)
	if out, err := dynactl("-endpoints", c.eps, "put", "color", "blue"); err != nil || out != "OK" {
		t.Fatalf("put: %q %v", out, err)
	}
	// A local read is served by endpoint 1, a follower: wait until every
	// node applied the put.
	for _, s := range c.srvs {
		for deadline := time.Now().Add(5 * time.Second); ; {
			if v, ok := s.Get("color"); ok && string(v) == "blue" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never applied the put", s.Status().ID)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for _, mode := range []string{"local", "lease", "linearizable"} {
		if out, err := dynactl("-endpoints", c.eps, "-consistency", mode, "get", "color"); err != nil || out != "blue" {
			t.Fatalf("get -consistency %s: %q %v", mode, out, err)
		}
	}
	if _, err := dynactl("-endpoints", c.eps, "-consistency", "wat", "get", "color"); err == nil {
		t.Fatal("bad -consistency accepted")
	}

	if out, err := dynactl("-endpoints", c.eps, "del", "color"); err != nil || out != "OK" {
		t.Fatalf("del: %q %v", out, err)
	}
	if _, err := dynactl("-endpoints", c.eps, "-consistency", "linearizable", "get", "color"); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("get after del: %v, want key not found", err)
	}
	if out, err := dynactl("-endpoints", c.eps, "ping"); err != nil || !strings.HasPrefix(out, "OK ") {
		t.Fatalf("ping: %q %v", out, err)
	}
}

func TestClientBench(t *testing.T) {
	c := startCluster(t)
	out, err := dynactl("-endpoints", c.eps, "bench", "-n", "20")
	if err != nil || !strings.HasPrefix(out, "20 puts in ") {
		t.Fatalf("bench: %q %v", out, err)
	}
	lead := c.leader(t)
	for i := 0; i < 20; i++ {
		if _, ok := lead.Get(fmt.Sprintf("bench-%d", i)); !ok {
			t.Fatalf("bench-%d missing on the leader", i)
		}
	}
}

func TestClientStatus(t *testing.T) {
	c := startCluster(t)
	out, err := dynactl(append([]string{"status"}, append(c.https, "127.0.0.1:1")...)...)
	if err != nil {
		t.Fatal(err) // one reachable endpoint suffices
	}
	if !strings.Contains(out, `"state":"leader"`) || !strings.Contains(out, "unreachable") {
		t.Fatalf("status output:\n%s", out)
	}
}

func TestClientAllEndpointsDown(t *testing.T) {
	dead := "127.0.0.1:1" // nothing listens on port 1 for us
	for _, cmd := range [][]string{
		{"put", "k", "v"},
		{"get", "k"},
		{"del", "k"},
		{"ping"},
		{"bench", "-n", "1"},
	} {
		if _, err := dynactl(append([]string{"-endpoints", dead}, cmd...)...); err == nil {
			t.Fatalf("%v succeeded with no reachable endpoint", cmd)
		}
	}
	if _, err := dynactl("status", dead); err == nil {
		t.Fatal("status should fail with no endpoints")
	}
}
