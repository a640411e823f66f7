package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// startShardedCluster boots g independent real Raft groups of n nodes
// each and returns a Front over their HTTP endpoints.
func startShardedCluster(t *testing.T, g, n int) (*Front, [][]*Server) {
	t.Helper()
	groups := make([][]*Server, g)
	urls := make([][]string, g)
	for i := 0; i < g; i++ {
		groups[i] = startClusterStatic(t, n, fastTuner)
		urls[i] = make([]string, n)
		for j, s := range groups[i] {
			urls[i][j] = "http://" + s.HTTPAddr()
		}
	}
	front, err := NewFront(urls)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g; i++ {
		waitLeader(t, groups[i], 10*time.Second)
	}
	return front, groups
}

func TestFrontRoutesAcrossGroups(t *testing.T) {
	front, groups := startShardedCluster(t, 2, 3)
	fs := httptest.NewServer(front)
	defer fs.Close()

	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("front-%03d", i)
		req, _ := http.NewRequest(http.MethodPut, fs.URL+"/kv/"+keys[i], strings.NewReader("v"+keys[i]))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT %s = %d", keys[i], resp.StatusCode)
		}
	}
	// Reads come back through the front, tagged with the owning group.
	seen := map[string]bool{}
	for _, k := range keys {
		resp, err := http.Get(fs.URL + "/kv/" + k)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "v"+k {
			t.Fatalf("GET %s = %d %q", k, resp.StatusCode, body)
		}
		seen[resp.Header.Get("X-Shard-Group")] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all keys served by groups %v; front not sharding", seen)
	}
	// Each key lives only in its owning group's stores. Read each group's
	// leader: it applied every acked put, a follower may still lag.
	for _, k := range keys {
		owner := front.Router().Route(k)
		for gi, grp := range groups {
			_, ok := waitLeader(t, grp, 10*time.Second).Get(k)
			if want := int(owner) == gi; ok != want {
				t.Fatalf("key %q present=%v in group %d (owner %d)", k, ok, gi, owner)
			}
		}
	}
}

func TestFrontMultiGet(t *testing.T) {
	front, _ := startShardedCluster(t, 2, 3)
	fs := httptest.NewServer(front)
	defer fs.Close()

	keys := []string{"mg-a", "mg-b", "mg-c", "mg-d"}
	for _, k := range keys {
		req, _ := http.NewRequest(http.MethodPut, fs.URL+"/kv/"+k, strings.NewReader("val-"+k))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	q := make([]string, 0, len(keys)+1)
	for _, k := range append(keys, "mg-absent") {
		q = append(q, "key="+k)
	}
	resp, err := http.Get(fs.URL + "/multiget?" + strings.Join(q, "&"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multiget = %d", resp.StatusCode)
	}
	var got map[string][]byte // values arrive base64-encoded
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("multiget returned %d of %d keys: %v", len(got), len(keys), got)
	}
	for _, k := range keys {
		if string(got[k]) != "val-"+k {
			t.Fatalf("multiget[%q] = %q", k, got[k])
		}
	}
}

// Keys with reserved URL characters must survive the front→member hop:
// the front forwards the escaped path, not the decoded one.
func TestFrontEscapedKeys(t *testing.T) {
	front, _ := startShardedCluster(t, 2, 3)
	fs := httptest.NewServer(front)
	defer fs.Close()

	keys := []string{"100%", "a?b", "a b", "pre#fix"}
	for _, k := range keys {
		req, _ := http.NewRequest(http.MethodPut, fs.URL+"/kv/"+url.PathEscape(k), strings.NewReader("val-"+k))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT %q = %d", k, resp.StatusCode)
		}
		resp, err = http.Get(fs.URL + "/kv/" + url.PathEscape(k))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "val-"+k {
			t.Fatalf("GET %q = %d %q", k, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(fs.URL + "/multiget?" + url.Values{"key": keys}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string][]byte // values arrive base64-encoded
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if string(got[k]) != "val-"+k {
			t.Fatalf("multiget[%q] = %q", k, got[k])
		}
	}
}

func TestFrontValidation(t *testing.T) {
	if _, err := NewFront(nil); err == nil {
		t.Fatal("expected error for empty group set")
	}
	if _, err := NewFront([][]string{{}}); err == nil {
		t.Fatal("expected error for group with no members")
	}
}
