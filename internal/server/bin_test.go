package server

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynatune/internal/wireclient"
)

// startBinCluster boots n servers with a binary client listener and an
// HTTP /status listener and returns the servers plus their binary
// addresses indexed by node ID-1.
func startBinCluster(t *testing.T, n int) ([]*Server, []string) {
	t.Helper()
	srvs := startClusterWith(t, n, func(c *Config) { c.HTTPListen, c.BinListen = "127.0.0.1:0", "127.0.0.1:0" })
	bins := make([]string, n)
	for i, s := range srvs {
		bins[i] = s.BinAddr()
	}
	return srvs, bins
}

func TestBinPutGetAgainstNodes(t *testing.T) {
	srvs, bins := startBinCluster(t, 3)
	waitLeader(t, srvs, 10*time.Second)

	gc := wireclient.NewGroupClient(bins, wireclient.PoolConfig{Size: 1})
	defer gc.Close()
	call := groupCall(t, gc)

	if resp := call(wireclient.Request{Op: wireclient.OpPut, Key: "color", Value: []byte("blue")}); resp.Status != wireclient.StatusOK {
		t.Fatalf("put status %s: %s", resp.Status, resp.Err)
	}
	if resp := call(wireclient.Request{Op: wireclient.OpGet, Key: "color"}); resp.Status != wireclient.StatusOK || !bytes.Equal(resp.Value, []byte("blue")) {
		t.Fatalf("get: status %s value %q", resp.Status, resp.Value)
	}
	if resp := call(wireclient.Request{Op: wireclient.OpGet, Key: "nope"}); resp.Status != wireclient.StatusNotFound {
		t.Fatalf("missing key: status %s", resp.Status)
	}
	if resp := call(wireclient.Request{Op: wireclient.OpDelete, Key: "color"}); resp.Status != wireclient.StatusOK {
		t.Fatalf("delete status %s: %s", resp.Status, resp.Err)
	}
	if resp := call(wireclient.Request{Op: wireclient.OpGet, Flags: wireclient.FlagReadIndex, Key: "color"}); resp.Status != wireclient.StatusNotFound {
		t.Fatalf("get after delete: status %s value %q", resp.Status, resp.Value)
	}
}

// groupCall returns a helper that sends one request through gc and fails
// the test on a transport error.
func groupCall(t *testing.T, gc *wireclient.GroupClient) func(wireclient.Request) wireclient.Response {
	return func(r wireclient.Request) wireclient.Response {
		t.Helper()
		resp, err := gc.Call(&r)
		if err != nil {
			t.Fatalf("%s %q: %v", r.Op, r.Key, err)
		}
		return resp
	}
}

// The node HTTP listener serves /status and nothing else: key-value
// traffic goes over the binary API only.
func TestHTTPAPI(t *testing.T) {
	srvs, _ := startBinCluster(t, 3)
	lead := waitLeader(t, srvs, 10*time.Second)
	base := "http://" + lead.HTTPAddr()

	st, err := http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(st.Body)
	st.Body.Close()
	if st.StatusCode != http.StatusOK || !strings.Contains(string(body), `"state":"leader"`) {
		t.Fatalf("status = %d %s", st.StatusCode, body)
	}
	for _, path := range []string{"/kv/color", "/multiget?key=color"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s on the status listener = %d, want 404", path, resp.StatusCode)
		}
	}
}

// The read consistency mode, once the HTTP ?consistency= parameter, is a
// per-request flag: lease by default, FlagLocal for a local read and
// FlagReadIndex for a ReadIndex read. Every mode sees an acked put and
// reports a missing key as not found. (A follower's not-leader hint on a
// ReadIndex read is checked in TestBinFollowerReturnsLeaderHint.)
func TestHTTPConsistencyParam(t *testing.T) {
	srvs, bins := startBinCluster(t, 3)
	waitLeader(t, srvs, 10*time.Second)

	gc := wireclient.NewGroupClient(bins, wireclient.PoolConfig{Size: 1})
	defer gc.Close()
	call := groupCall(t, gc)

	if resp := call(wireclient.Request{Op: wireclient.OpPut, Key: "c", Value: []byte("42")}); resp.Status != wireclient.StatusOK {
		t.Fatalf("put status %s: %s", resp.Status, resp.Err)
	}
	// The group client cached the leader, so even the local read lands
	// on the node that applied the put.
	for _, flags := range []uint8{0, wireclient.FlagLocal, wireclient.FlagReadIndex} {
		resp := call(wireclient.Request{Op: wireclient.OpGet, Flags: flags, Key: "c"})
		if resp.Status != wireclient.StatusOK || !bytes.Equal(resp.Value, []byte("42")) {
			t.Fatalf("get flags=%d: status %s value %q", flags, resp.Status, resp.Value)
		}
		if resp := call(wireclient.Request{Op: wireclient.OpGet, Flags: flags, Key: "nope"}); resp.Status != wireclient.StatusNotFound {
			t.Fatalf("missing key flags=%d: status %s", flags, resp.Status)
		}
	}
}

// Every leader-only request sent straight at a follower must answer
// StatusNotLeader carrying the real leader's id.
func TestBinFollowerReturnsLeaderHint(t *testing.T) {
	srvs, bins := startBinCluster(t, 3)
	leader := waitLeader(t, srvs, 10*time.Second)

	var follower int = -1
	for i, s := range srvs {
		if s != leader {
			follower = i
			break
		}
	}
	c, err := wireclient.Dial(bins[follower], 2*time.Second, wireclient.ConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, req := range []wireclient.Request{
		{Op: wireclient.OpPut, Key: "k", Value: []byte("v")},
		{Op: wireclient.OpDelete, Key: "k"},
		{Op: wireclient.OpGet, Key: "k"},
		{Op: wireclient.OpGet, Flags: wireclient.FlagReadIndex, Key: "k"},
		{Op: wireclient.OpMultiGet, Keys: []string{"k", "j"}},
	} {
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := c.Call(&req)
			if err != nil {
				t.Fatalf("%s flags=%d: %v", req.Op, req.Flags, err)
			}
			if resp.Status == wireclient.StatusNotLeader && resp.Leader != 0 {
				if resp.Leader != uint64(leader.Status().ID) {
					t.Fatalf("%s flags=%d: hint %d, leader is %d", req.Op, req.Flags, resp.Leader, leader.Status().ID)
				}
				break
			}
			// The follower may not have learned the leader yet (hint 0);
			// retry briefly.
			if time.Now().After(deadline) {
				t.Fatalf("%s flags=%d: never got a leader hint; last status %s", req.Op, req.Flags, resp.Status)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

// Every node validates a request before it proposes or reads: empty keys
// and oversize multigets are rejected by leader and followers alike (a
// follower would otherwise answer not-leader), and nothing is proposed.
func TestBinRejectsInvalidRequests(t *testing.T) {
	srvs, bins := startBinCluster(t, 3)
	leader := waitLeader(t, srvs, 10*time.Second)

	for i := range srvs {
		c, err := wireclient.Dial(bins[i], 2*time.Second, wireclient.ConnConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, req := range []wireclient.Request{
			{Op: wireclient.OpPut, Key: "", Value: []byte("v")},
			{Op: wireclient.OpGet, Key: ""},
			{Op: wireclient.OpGet, Flags: wireclient.FlagLocal, Key: ""},
			{Op: wireclient.OpDelete, Key: ""},
			{Op: wireclient.OpMultiGet, Keys: []string{"a", ""}},
			{Op: wireclient.OpMultiGet, Keys: multiGetKeys(maxMultiGetKeys + 1)},
		} {
			resp, err := c.Call(&req)
			if err != nil {
				t.Fatalf("node %d %s: %v", i+1, req.Op, err)
			}
			if resp.Status != wireclient.StatusErr {
				t.Fatalf("node %d %s %q (%d keys): status %s, want err", i+1, req.Op, req.Key, len(req.Keys), resp.Status)
			}
		}
	}
	if n := leader.BatchStats().ClientOps; n != 0 {
		t.Fatalf("%d commands proposed for invalid requests", n)
	}
}

func multiGetKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("cap-%d", i)
	}
	return keys
}

// FlagReadIndex asks for a quorum round, not the lease: a leader cut off
// from both followers still holds its lease for up to one Et, but must
// not serve a ReadIndex read.
func TestBinReadIndexNeedsQuorum(t *testing.T) {
	srvs, bins := startBinCluster(t, 3)
	leader := waitLeader(t, srvs, 10*time.Second)
	c, err := wireclient.Dial(bins[leader.Status().ID-1], 2*time.Second, wireclient.ConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, s := range srvs {
		if s != leader {
			s.Stop()
		}
	}
	resp, err := c.Call(&wireclient.Request{Op: wireclient.OpGet, Flags: wireclient.FlagReadIndex, Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wireclient.StatusNotLeader && resp.Status != wireclient.StatusErr {
		t.Fatalf("ReadIndex read without a quorum: status %s", resp.Status)
	}
}

func TestBinMultiGet(t *testing.T) {
	srvs, bins := startBinCluster(t, 3)
	waitLeader(t, srvs, 10*time.Second)

	gc := wireclient.NewGroupClient(bins, wireclient.PoolConfig{Size: 1})
	defer gc.Close()
	for i := 0; i < 4; i++ {
		resp, err := gc.Call(&wireclient.Request{
			Op: wireclient.OpPut, Key: fmt.Sprintf("mg-%d", i), Value: []byte(fmt.Sprintf("v%d", i)),
		})
		if err != nil || resp.Status != wireclient.StatusOK {
			t.Fatalf("put %d: %v %s", i, err, resp.Status)
		}
	}
	resp, err := gc.Call(&wireclient.Request{
		Op:   wireclient.OpMultiGet,
		Keys: []string{"mg-2", "missing", "mg-0", "mg-3"},
	})
	if err != nil {
		t.Fatalf("multiget: %v", err)
	}
	if resp.Status != wireclient.StatusOK {
		t.Fatalf("multiget status %s: %s", resp.Status, resp.Err)
	}
	wantFound := []bool{true, false, true, true}
	wantVals := []string{"v2", "", "v0", "v3"}
	for i := range wantFound {
		if resp.Found[i] != wantFound[i] || string(resp.Multi[i]) != wantVals[i] {
			t.Fatalf("slot %d: found=%v val=%q", i, resp.Found[i], resp.Multi[i])
		}
	}
}

// The group client must keep writes flowing across a leader crash by
// following hints / walking members to the new leader.
func TestBinClientFollowsLeaderChange(t *testing.T) {
	srvs, bins := startBinCluster(t, 3)
	leader := waitLeader(t, srvs, 10*time.Second)

	gc := wireclient.NewGroupClient(bins, wireclient.PoolConfig{
		Size: 1, BackoffBase: 20 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
	})
	defer gc.Close()
	if resp, err := gc.Call(&wireclient.Request{Op: wireclient.OpPut, Key: "pre", Value: []byte("1")}); err != nil || resp.Status != wireclient.StatusOK {
		t.Fatalf("pre-crash put: %v %s", err, resp.Status)
	}

	leader.Stop()
	rest := make([]*Server, 0, 2)
	for _, s := range srvs {
		if s != leader {
			rest = append(rest, s)
		}
	}
	waitLeader(t, rest, 10*time.Second)

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := gc.Call(&wireclient.Request{Op: wireclient.OpPut, Key: "post", Value: []byte("2")})
		if err == nil && resp.Status == wireclient.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("put never reached the new leader: %v / %+v", err, resp)
		}
		time.Sleep(50 * time.Millisecond)
	}
	resp, err := gc.Call(&wireclient.Request{Op: wireclient.OpGet, Key: "post"})
	if err != nil || resp.Status != wireclient.StatusOK || string(resp.Value) != "2" {
		t.Fatalf("read-after-failover: %v %+v", err, resp)
	}
}

// Graceful drain: requests the server has accepted are answered before the
// connection is torn down, even when close() races their handlers.
func TestBinServerDrainAnswersAccepted(t *testing.T) {
	release := make(chan struct{})
	bs, err := startBinServer("127.0.0.1:0", func(req wireclient.Request) wireclient.Response {
		<-release
		return wireclient.Response{Status: wireclient.StatusOK, Value: []byte("done")}
	}, log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatal(err)
	}

	c, err := wireclient.Dial(bs.addr(), 2*time.Second, wireclient.ConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const N = 10
	results := make(chan error, N)
	for i := 0; i < N; i++ {
		c.Do(&wireclient.Request{Op: wireclient.OpGet, Key: fmt.Sprintf("k%d", i)}, func(r wireclient.Response, err error) {
			if err == nil && r.Status != wireclient.StatusOK {
				err = fmt.Errorf("status %s", r.Status)
			}
			results <- err
		})
	}
	// Wait until the server has accepted all N into handlers.
	deadline := time.Now().Add(2 * time.Second)
	for c.Pending() < N && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let the reader goroutine pick them up

	var closed sync.WaitGroup
	closed.Add(1)
	go func() { defer closed.Done(); bs.close() }()
	time.Sleep(20 * time.Millisecond) // close() is now draining
	close(release)                    // handlers complete during drain

	for i := 0; i < N; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("request %d failed during drain: %v", i, err)
			}
		case <-time.After(binDrainTimeout + 2*time.Second):
			t.Fatal("drain never answered accepted request")
		}
	}
	closed.Wait()
}

// startBinSharded boots g three-node groups and a BinFront over their
// binary listeners, and returns the front, a client of it and the groups.
func startBinSharded(t *testing.T, g int) (*BinFront, *wireclient.Client, [][]*Server) {
	t.Helper()
	groups := make([][]*Server, g)
	groupBins := make([][]string, g)
	for i := 0; i < g; i++ {
		groups[i], groupBins[i] = startBinCluster(t, 3)
		waitLeader(t, groups[i], 10*time.Second)
	}
	f, err := StartBinFront("127.0.0.1:0", groupBins, wireclient.PoolConfig{Size: 1}, log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	cl := wireclient.NewClient([]string{f.Addr()}, wireclient.PoolConfig{Size: 1})
	t.Cleanup(cl.Close)
	return f, cl, groups
}

// spanningKeys returns at least n keys named prefix-i that together land
// in every one of the front's g groups.
func spanningKeys(t *testing.T, f *BinFront, g int, prefix string, n int) []string {
	t.Helper()
	seen := map[int]bool{}
	var keys []string
	for i := 0; len(seen) < g || len(keys) < n; i++ {
		if i > 1000 {
			t.Fatal("router never spread keys across groups")
		}
		k := fmt.Sprintf("%s-%d", prefix, i)
		seen[int(f.Router().Route(k))] = true
		keys = append(keys, k)
	}
	return keys
}

// putGetThroughFront writes "val-"+k for every key through cl and reads
// each back.
func putGetThroughFront(t *testing.T, cl *wireclient.Client, keys []string) {
	t.Helper()
	for _, k := range keys {
		if err := cl.Put(k, []byte("val-"+k)); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
	}
	for _, k := range keys {
		v, err := cl.Get(k)
		if err != nil || string(v) != "val-"+k {
			t.Fatalf("get %q: %q %v", k, v, err)
		}
	}
}

// BinFront spreads keys over its groups and each key lives only in its
// owning group's stores.
func TestFrontRoutesAcrossGroups(t *testing.T) {
	const G = 2
	f, cl, groups := startBinSharded(t, G)
	keys := spanningKeys(t, f, G, "front", 16)
	putGetThroughFront(t, cl, keys)
	// Read each group's leader: it applied every acked put, a follower
	// may still lag.
	for _, k := range keys {
		owner := f.Router().Route(k)
		for gi, grp := range groups {
			_, ok := waitLeader(t, grp, 10*time.Second).Get(k)
			if want := int(owner) == gi; ok != want {
				t.Fatalf("key %q present=%v in group %d (owner %d)", k, ok, gi, owner)
			}
		}
	}
}

// A multiget through BinFront that spans groups comes back reassembled
// in request order, with an absent key reported as not found.
func TestFrontMultiGet(t *testing.T) {
	const G = 2
	f, cl, _ := startBinSharded(t, G)
	keys := spanningKeys(t, f, G, "mg", 4)
	putGetThroughFront(t, cl, keys)
	const absent = 1
	mgKeys := append([]string{}, keys[:absent]...)
	mgKeys = append(mgKeys, "mg-absent")
	mgKeys = append(mgKeys, keys[absent:]...)
	vals, found, err := cl.MultiGet(mgKeys)
	if err != nil {
		t.Fatalf("multiget: %v", err)
	}
	if len(found) != len(mgKeys) {
		t.Fatalf("multiget returned %d of %d slots", len(found), len(mgKeys))
	}
	for i, k := range mgKeys {
		if i == absent {
			if found[i] {
				t.Fatalf("absent key reported found: %q", vals[i])
			}
			continue
		}
		if !found[i] || string(vals[i]) != "val-"+k {
			t.Fatalf("multiget slot %d (%q): found=%v val=%q", i, k, found[i], vals[i])
		}
	}
}

// Keys with URL-reserved characters pass through BinFront verbatim, for
// single reads and multigets alike.
func TestFrontEscapedKeys(t *testing.T) {
	_, cl, _ := startBinSharded(t, 2)
	keys := []string{"100%", "a?b", "a b", "pre#fix"}
	putGetThroughFront(t, cl, keys)
	vals, found, err := cl.MultiGet(keys)
	if err != nil {
		t.Fatalf("multiget: %v", err)
	}
	for i, k := range keys {
		if !found[i] || string(vals[i]) != "val-"+k {
			t.Fatalf("multiget[%q]: found=%v val=%q", k, found[i], vals[i])
		}
	}
}

// BinFront routes deletes like puts: a key deleted through the front is
// gone from its owning group, and a ReadIndex read through the front
// sees that.
func TestBinFrontShardedRouting(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two raft clusters")
	}
	const G = 2
	f, cl, groups := startBinSharded(t, G)
	keys := spanningKeys(t, f, G, "shard-key", G)
	putGetThroughFront(t, cl, keys)
	for _, k := range keys {
		resp, err := cl.Call(&wireclient.Request{Op: wireclient.OpDelete, Key: k})
		if err != nil || resp.Status != wireclient.StatusOK {
			t.Fatalf("delete %q: %v %+v", k, err, resp)
		}
		resp, err = cl.Call(&wireclient.Request{Op: wireclient.OpGet, Flags: wireclient.FlagReadIndex, Key: k})
		if err != nil || resp.Status != wireclient.StatusNotFound {
			t.Fatalf("get %q after delete: %v %+v", k, err, resp)
		}
		owner := groups[f.Router().Route(k)]
		if _, ok := waitLeader(t, owner, 10*time.Second).Get(k); ok {
			t.Fatalf("key %q still in its owning group after delete", k)
		}
	}
}

// StartBinFront rejects an empty topology, and the front rejects invalid
// requests (empty keys, a multiget over maxMultiGetKeys) without
// forwarding them; a multiget at the cap is served.
func TestBinFrontValidation(t *testing.T) {
	lg := log.New(io.Discard, "", 0)
	if _, err := StartBinFront("127.0.0.1:0", nil, wireclient.PoolConfig{}, lg); err == nil {
		t.Fatal("expected error for empty group set")
	}
	if _, err := StartBinFront("127.0.0.1:0", [][]string{{}}, wireclient.PoolConfig{}, lg); err == nil {
		t.Fatal("expected error for group with no members")
	}
	f, hits := startFakeFront(t)
	for _, req := range []wireclient.Request{
		{Op: wireclient.OpPut, Key: "", Value: []byte("v")},
		{Op: wireclient.OpGet, Key: ""},
		{Op: wireclient.OpDelete, Key: ""},
		{Op: wireclient.OpMultiGet},
		{Op: wireclient.OpMultiGet, Keys: []string{"a", ""}},
		{Op: wireclient.OpMultiGet, Keys: multiGetKeys(maxMultiGetKeys + 1)},
	} {
		if resp := f.handle(req); resp.Status != wireclient.StatusErr {
			t.Fatalf("%s %q (%d keys): status %s, want err", req.Op, req.Key, len(req.Keys), resp.Status)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("invalid requests forwarded %d times", n)
	}
	resp := f.handle(wireclient.Request{Op: wireclient.OpMultiGet, Keys: multiGetKeys(maxMultiGetKeys)})
	if resp.Status != wireclient.StatusOK || len(resp.Found) != maxMultiGetKeys || hits.Load() == 0 {
		t.Fatalf("multiget at the cap: status %s %q, %d results, %d forwards", resp.Status, resp.Err, len(resp.Found), hits.Load())
	}
}

// startFakeFront starts a BinFront over one group whose only member is a
// binary server that answers every request as leader (multigets with
// all keys absent) and counts what reaches it.
func startFakeFront(t *testing.T) (*BinFront, *atomic.Int64) {
	t.Helper()
	hits := new(atomic.Int64)
	lg := log.New(io.Discard, "", 0)
	member, err := startBinServer("127.0.0.1:0", func(req wireclient.Request) wireclient.Response {
		hits.Add(1)
		return wireclient.Response{Multi: make([][]byte, len(req.Keys)), Found: make([]bool, len(req.Keys))}
	}, lg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(member.close)
	f, err := StartBinFront("127.0.0.1:0", [][]string{{member.addr()}}, wireclient.PoolConfig{Size: 1}, lg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, hits
}
