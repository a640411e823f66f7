package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"dynatune/internal/kv"
	"dynatune/internal/server"
	"dynatune/internal/wireclient"
)

// Span names: one per layer call the probe stream times from outside.
const (
	spanProbe        = "probe"
	spanFrontPing    = "wireclient.front_ping"
	spanNodePing     = "wireclient.node_ping"
	spanPropose      = "server.Propose"
	spanLeaseRead    = "server.GetLinearizable"
	spanFrontGet     = "wireclient.get"
	probeInterval    = 10 * time.Millisecond
	probeKey         = "probe"
	probeDialTimeout = 2 * time.Second
)

// span is one timed call: its name, its own id, the id of the span that
// caused it, the probe round (request id) it belongs to, and its start
// and end in nanoseconds since the run's epoch.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Err    string `json:"err,omitempty"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	nextID uint64
	fails  int
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) id() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// call times fn as a span named name under parent; fn receives the
// span's id to parent its own calls.
func (t *tracer) call(name string, parent, req uint64, fn func(id uint64) error) {
	id := t.id()
	start := time.Since(t.epoch)
	err := fn(id)
	sp := span{Name: name, ID: id, Parent: parent, Req: req, Start: int64(start), End: int64(time.Since(t.epoch))}
	t.mu.Lock()
	if err != nil {
		sp.Err = err.Error()
		t.fails++
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// durations returns the successful spans of name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Err == "" {
			out = append(out, float64(s.End-s.Start)/float64(time.Millisecond))
		}
	}
	return out
}

func (t *tracer) failures() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fails
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(fh)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	return err
}

// prober runs the low-rate probe stream against one fleet's leader: each
// round pings the Front, pings the leader's binary API directly, proposes
// in-process on the leader, lease-reads in-process on the leader and gets
// through the Front, each as a child span of the round.
type prober struct {
	tr     *tracer
	f      *fleet
	leader *server.Server
	front  *wireclient.Conn
	node   *wireclient.Conn
	seed   uint64
	round  int
}

func newProber(tr *tracer, f *fleet, leader int, seed uint64) (*prober, error) {
	front, err := wireclient.Dial(f.front.Addr(), probeDialTimeout, wireclient.ConnConfig{})
	if err != nil {
		return nil, fmt.Errorf("probe: dial front: %w", err)
	}
	node, err := wireclient.Dial(f.srvs[leader].BinAddr(), probeDialTimeout, wireclient.ConnConfig{})
	if err != nil {
		front.Close()
		return nil, fmt.Errorf("probe: dial leader: %w", err)
	}
	return &prober{tr: tr, f: f, leader: f.srvs[leader], front: front, node: node, seed: seed}, nil
}

// run probes every probeInterval until stop closes, then closes its
// connections.
func (p *prober) run(stop <-chan struct{}) {
	defer p.front.Close()
	defer p.node.Close()
	tick := time.NewTicker(probeInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		p.once()
	}
}

func (p *prober) once() {
	p.round++
	req := uint64(p.round)
	key, _ := opAt(p.seed^0x70726f6265, p.round, 0)
	p.tr.call(spanProbe, 0, req, func(parent uint64) error {
		p.tr.call(spanFrontPing, parent, req, func(uint64) error {
			return respErr(p.front.Call(&wireclient.Request{Op: wireclient.OpPing}))
		})
		p.tr.call(spanNodePing, parent, req, func(uint64) error {
			return respErr(p.node.Call(&wireclient.Request{Op: wireclient.OpPing}))
		})
		p.tr.call(spanPropose, parent, req, func(uint64) error {
			return p.leader.Propose(kv.Command{Op: kv.OpPut, Key: probeKey, Value: kv.SeqValue(req)})
		})
		p.tr.call(spanLeaseRead, parent, req, func(uint64) error {
			start := p.f.model.now()
			v, ok, err := p.leader.GetLinearizable(keyNames[key], true)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("lease read: %s not found", keyNames[key])
			}
			return p.f.model.checkRead(key, v, start)
		})
		p.tr.call(spanFrontGet, parent, req, func(uint64) error {
			start := p.f.model.now()
			resp, err := p.front.Call(&wireclient.Request{Op: wireclient.OpGet, Key: keyNames[key]})
			if err := respErr(resp, err); err != nil {
				return err
			}
			return p.f.model.checkRead(key, resp.Value, start)
		})
		return nil
	})
}
