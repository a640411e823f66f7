// Command dynactl is the client for dynatuned nodes. It speaks the
// pipelined binary protocol (internal/wireclient) to one group's member
// binary addresses, listed in node-ID order so a not-leader hint names the
// endpoint to try next, or to a sharded Front's binary address. status
// reads each node's HTTP /status endpoint instead, given as arguments.
//
//	dynactl -endpoints 127.0.0.1:9101,127.0.0.1:9102,127.0.0.1:9103 put color blue
//	dynactl -endpoints 127.0.0.1:9101,127.0.0.1:9102,127.0.0.1:9103 -consistency linearizable get color
//	dynactl -endpoints 127.0.0.1:9101,127.0.0.1:9102,127.0.0.1:9103 del color
//	dynactl -endpoints 127.0.0.1:9101,127.0.0.1:9102,127.0.0.1:9103 bench -n 1000
//	dynactl status 127.0.0.1:8101 127.0.0.1:8102 127.0.0.1:8103
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"dynatune/internal/metrics"
	"dynatune/internal/wireclient"
)

// errUsage makes main print the usage line and exit 2.
var errUsage = errors.New("usage")

// readModes maps -consistency values to OpGet flags.
var readModes = map[string]uint8{
	"local":        wireclient.FlagLocal,
	"lease":        0,
	"linearizable": wireclient.FlagReadIndex,
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, errUsage) {
		fmt.Fprintln(os.Stderr, `usage: dynactl [-endpoints host:port,...] [-timeout d] [-consistency local|lease|linearizable] {get <key> | put <key> <value> | del <key> | bench [-n N] | ping}
       dynactl [-timeout d] status <http host:port>...`)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynactl:", err)
		os.Exit(1)
	}
}

// run executes one dynactl command line, printing results to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dynactl", flag.ContinueOnError)
	endpoints := fs.String("endpoints", "127.0.0.1:9101", "comma-separated binary API addresses: one group's members in node-ID order, or a Front")
	timeout := fs.Duration("timeout", 5*time.Second, "dial timeout; also the per-request timeout of status")
	consistency := fs.String("consistency", "local", "get read mode: local | lease | linearizable")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	args = fs.Args()
	if len(args) == 0 {
		return errUsage
	}
	if args[0] == "status" {
		if len(args) < 2 {
			return errUsage
		}
		return status(args[1:], *timeout, out)
	}

	gc := wireclient.NewGroupClient(strings.Split(*endpoints, ","), wireclient.PoolConfig{Size: 1, DialTimeout: *timeout})
	defer gc.Close()
	switch {
	case args[0] == "get" && len(args) == 2:
		flags, ok := readModes[*consistency]
		if !ok {
			return fmt.Errorf("bad -consistency %q (want local|lease|linearizable)", *consistency)
		}
		resp, err := gc.Call(&wireclient.Request{Op: wireclient.OpGet, Flags: flags, Key: args[1]})
		if err := result(resp, err); err != nil {
			return err
		}
		fmt.Fprintln(out, string(resp.Value))
	case args[0] == "put" && len(args) == 3:
		if err := result(gc.Call(&wireclient.Request{Op: wireclient.OpPut, Key: args[1], Value: []byte(args[2])})); err != nil {
			return err
		}
		fmt.Fprintln(out, "OK")
	case args[0] == "del" && len(args) == 2:
		if err := result(gc.Call(&wireclient.Request{Op: wireclient.OpDelete, Key: args[1]})); err != nil {
			return err
		}
		fmt.Fprintln(out, "OK")
	case args[0] == "ping" && len(args) == 1:
		t0 := time.Now()
		if err := result(gc.Call(&wireclient.Request{Op: wireclient.OpPing})); err != nil {
			return err
		}
		fmt.Fprintf(out, "OK %.3fms\n", float64(time.Since(t0).Microseconds())/1000)
	case args[0] == "bench":
		bfs := flag.NewFlagSet("bench", flag.ContinueOnError)
		n := bfs.Int("n", 100, "number of sequential puts")
		if err := bfs.Parse(args[1:]); err != nil || bfs.NArg() != 0 {
			return errUsage
		}
		return bench(gc, *n, out)
	default:
		return errUsage
	}
	return nil
}

// result turns a call's outcome into the command's error.
func result(resp wireclient.Response, err error) error {
	switch {
	case err != nil:
		return err
	case resp.Status == wireclient.StatusOK:
		return nil
	case resp.Status == wireclient.StatusNotFound:
		return errors.New("key not found")
	default:
		return fmt.Errorf("%s: %s", resp.Status, resp.Err)
	}
}

// status prints each node's /status JSON; it fails only when no node
// answers.
func status(addrs []string, timeout time.Duration, out io.Writer) error {
	hc := &http.Client{Timeout: timeout}
	ok := 0
	for _, addr := range addrs {
		resp, err := hc.Get("http://" + addr + "/status")
		if err != nil {
			fmt.Fprintf(out, "%-22s unreachable: %v\n", addr, err)
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		fmt.Fprintf(out, "%-22s %s\n", addr, strings.TrimSpace(string(data)))
		ok++
	}
	if ok == 0 {
		return errors.New("no endpoints reachable")
	}
	return nil
}

// bench measures sequential put latency — a tiny real-network cousin of
// the Fig. 5 harness.
func bench(gc *wireclient.GroupClient, n int, out io.Writer) error {
	lats := make([]float64, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := result(gc.Call(&wireclient.Request{Op: wireclient.OpPut, Key: fmt.Sprintf("bench-%d", i), Value: []byte("v")})); err != nil {
			return fmt.Errorf("put %d: %w", i, err)
		}
		lats = append(lats, float64(time.Since(t0).Microseconds())/1000)
	}
	elapsed := time.Since(start)
	sort.Float64s(lats)
	s := metrics.Summarize(lats)
	fmt.Fprintf(out, "%d puts in %v (%.0f req/s)\n", n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
	fmt.Fprintf(out, "latency ms: mean %.2f  p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n", s.Mean, s.P50, s.P90, s.P99, s.Max)
	return nil
}
