package loadharness

// Worker-process sharding. RLIMIT_NOFILE is enforced per process, and a
// hardened container can pin the hard limit low enough (20k is common)
// that one process cannot hold 100k loopback connections — every conn
// costs two descriptors when both ends live in the same process. The
// harness therefore re-execs itself into N workers. Each worker runs a
// PRIVATE BinFront over the same fleet nodes: the front multiplexes its
// slice of client connections onto a few pooled pipelined backend
// conns, so the fleet process's descriptor count stays flat no matter
// how many workers pile on. The parent keeps workers in lock-step per
// ramp stage — dial barrier first, then overlapping measured windows —
// and merges counts plus raw latency samples centrally, because
// quantiles do not compose from per-worker quantiles.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"runtime"
	"time"

	"dynatune/internal/server"
	"dynatune/internal/wireclient"
)

// workerFDOverhead is each worker's non-connection descriptor budget:
// its private front's backend pools, listener, epoll, stdio.
const workerFDOverhead = 2048

// workerInit is the first line on a worker's stdin.
type workerInit struct {
	Addr         string        `json:"addr"`
	FleetBins    [][]string    `json:"fleet_bins,omitempty"`
	WriteFrac    float64       `json:"write_frac"`
	Keys         int           `json:"keys"`
	ValueBytes   int           `json:"value_bytes"`
	SLA          time.Duration `json:"sla"`
	DialParallel int           `json:"dial_parallel"`
	// Core pins the worker process to one CPU (-1 leaves it unpinned).
	Core int `json:"core"`
}

type workerHello struct {
	OK    bool   `json:"ok"`
	Front string `json:"front"`
	Err   string `json:"err,omitempty"`
}

// workerCmd drives one worker step: "dial" grows the conn set to Conns
// and acks (the parent barriers on every ack so measured windows overlap
// at full concurrency), "run" executes one open-loop window.
type workerCmd struct {
	Op    string        `json:"op"`
	Conns int           `json:"conns,omitempty"`
	Rate  float64       `json:"rate,omitempty"`
	Dur   time.Duration `json:"dur,omitempty"`
}

type workerReport struct {
	Op    string       `json:"op"`
	Err   string       `json:"err,omitempty"`
	Stage *StageResult `json:"stage,omitempty"`
	Lats  []float64    `json:"lats,omitempty"`
}

// WorkerMain is the subprocess entry point behind Options.WorkerCmd
// (`dynabench load-worker`): JSON commands in on r, JSON reports out on
// w, exit on EOF. Nothing else may write to w — the fleet logger and
// all progress go to stderr or nowhere.
func WorkerMain(r io.Reader, w io.Writer) error {
	dec := json.NewDecoder(r)
	enc := json.NewEncoder(w)
	var init workerInit
	if err := dec.Decode(&init); err != nil {
		return fmt.Errorf("loadharness worker: init: %w", err)
	}
	if init.Core >= 0 {
		// Pin before spawning connection goroutines so every runtime
		// thread inherits the mask. Best effort: a masked syscall only
		// costs the pinning, not the run.
		if err := pinToCore(init.Core); err != nil {
			fmt.Fprintf(os.Stderr, "loadharness worker: pin to core %d: %v\n", init.Core, err)
		}
	}
	o := Options{
		Addr:         init.Addr,
		WriteFrac:    init.WriteFrac,
		Keys:         init.Keys,
		ValueBytes:   init.ValueBytes,
		SLA:          init.SLA,
		DialParallel: init.DialParallel,
		// A worker's private front is its own dial destination, so one
		// source IP's ephemeral range covers the whole per-worker slice.
		SourceIPs: []string{"127.0.0.1"},
	}
	var front *server.BinFront
	if len(init.FleetBins) > 0 {
		var err error
		front, err = server.StartBinFront("127.0.0.1:0", init.FleetBins,
			wireclient.PoolConfig{Size: 2}, log.New(io.Discard, "", 0))
		if err != nil {
			enc.Encode(workerHello{Err: err.Error()}) //nolint:errcheck // already failing
			return fmt.Errorf("loadharness worker: front: %w", err)
		}
		defer front.Close()
		o.Addr = front.Addr()
	}
	if err := o.defaults(); err != nil {
		enc.Encode(workerHello{Err: err.Error()}) //nolint:errcheck // already failing
		return err
	}
	if err := enc.Encode(workerHello{OK: true, Front: o.Addr}); err != nil {
		return err
	}

	var conns []*wireclient.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for {
		var cmd workerCmd
		if err := dec.Decode(&cmd); err != nil {
			if errors.Is(err, io.EOF) {
				return nil // parent is done with us
			}
			return err
		}
		switch cmd.Op {
		case "dial":
			RaiseFDLimit(uint64(cmd.Conns)*2 + fdSlack) //nolint:errcheck // best effort; a short budget surfaces as dial errors
			var err error
			conns, err = growConns(conns, cmd.Conns, o)
			rep := workerReport{Op: "dial"}
			if err != nil {
				rep.Err = err.Error()
			}
			if err := enc.Encode(rep); err != nil {
				return err
			}
		case "run":
			o.StageDuration = cmd.Dur
			sr, lats := runStage(conns, cmd.Rate, o)
			if err := enc.Encode(workerReport{Op: "run", Stage: &sr, Lats: lats}); err != nil {
				return err
			}
		default:
			if err := enc.Encode(workerReport{Op: cmd.Op, Err: "unknown op"}); err != nil {
				return err
			}
		}
	}
}

// workerProc is the parent's handle on one spawned worker.
type workerProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	enc *json.Encoder
	dec *json.Decoder
}

func startWorker(o Options, core int) (*workerProc, error) {
	c := exec.Command(o.WorkerCmd[0], o.WorkerCmd[1:]...) //nolint:gosec // argv comes from our own caller
	c.Env = append(os.Environ(), o.WorkerEnv...)
	c.Stderr = os.Stderr
	in, err := c.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := c.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	w := &workerProc{cmd: c, in: in, enc: json.NewEncoder(in), dec: json.NewDecoder(out)}
	if err := w.enc.Encode(workerInit{
		Addr: o.Addr, FleetBins: o.FleetBins,
		WriteFrac: o.WriteFrac, Keys: o.Keys, ValueBytes: o.ValueBytes,
		SLA: o.SLA, DialParallel: o.DialParallel,
		Core: core,
	}); err != nil {
		w.stop()
		return nil, err
	}
	var hello workerHello
	if err := w.dec.Decode(&hello); err != nil {
		w.stop()
		return nil, fmt.Errorf("worker hello: %w", err)
	}
	if !hello.OK {
		w.stop()
		return nil, errors.New(hello.Err)
	}
	return w, nil
}

func (w *workerProc) send(cmd workerCmd) error { return w.enc.Encode(cmd) }

func (w *workerProc) recv() (workerReport, error) {
	var rep workerReport
	if err := w.dec.Decode(&rep); err != nil {
		return rep, err
	}
	if rep.Err != "" {
		return rep, errors.New(rep.Err)
	}
	return rep, nil
}

// stop closes the worker's stdin (its exit signal) and reaps it, killing
// after a grace period so a wedged worker cannot hang the parent.
func (w *workerProc) stop() {
	w.in.Close()
	done := make(chan struct{})
	go func() { w.cmd.Wait(); close(done) }() //nolint:errcheck // exit status is uninteresting
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		w.cmd.Process.Kill() //nolint:errcheck // best effort
		<-done
	}
}

// runSharded executes the ramp across worker subprocesses when one
// process's descriptor budget cannot hold every connection.
func runSharded(o Options, fdLimit uint64) (*Result, error) {
	per := 0
	if fdLimit > workerFDOverhead {
		per = int(fdLimit-workerFDOverhead) / 2
	}
	if per < 8 {
		return nil, fmt.Errorf("loadharness: fd limit %d leaves no room to shard", fdLimit)
	}
	nw := (o.Conns + per - 1) / per
	if o.Progress != nil {
		o.Progress(fmt.Sprintf("fd limit %d < ~%d needed: sharding %d conns across %d workers (private fronts, ≤%d conns each)",
			fdLimit, uint64(o.Conns)*2+fdSlack, o.Conns, nw, per))
	}
	// Pin workers round-robin when the machine has cores to spread over;
	// on one core pinning would just serialize the generators behind the
	// fleet, so it stays off.
	cores := runtime.NumCPU()
	pin := o.PinCores && cores > 1
	if o.PinCores && !pin && o.Progress != nil {
		o.Progress("core pinning requested but only 1 CPU is available; skipping")
	}
	ws := make([]*workerProc, 0, nw)
	defer func() {
		for _, w := range ws {
			w.stop()
		}
	}()
	for i := 0; i < nw; i++ {
		core := -1
		if pin {
			core = i % cores
		}
		w, err := startWorker(o, core)
		if err != nil {
			return nil, fmt.Errorf("loadharness: worker %d: %w", i, err)
		}
		ws = append(ws, w)
	}

	res := &Result{Conns: o.Conns}
	for stage := 0; stage < o.Stages; stage++ {
		want := stageConns(o, stage)
		rate := o.Rate * float64(want) / float64(o.Conns)
		targets := splitEven(want, nw)

		// Dial barrier: every worker reaches its target before any
		// window starts, so the measured windows overlap at the stage's
		// full concurrency instead of racing the slowest dialer.
		for i, w := range ws {
			if err := w.send(workerCmd{Op: "dial", Conns: targets[i]}); err != nil {
				return nil, fmt.Errorf("loadharness: worker %d: %w", i, err)
			}
		}
		for i, w := range ws {
			if _, err := w.recv(); err != nil {
				return nil, fmt.Errorf("loadharness: worker %d: dial to %d conns: %w", i, targets[i], err)
			}
		}

		stopProf, err := profileStage(o, stage)
		if err != nil {
			return nil, err
		}
		before := sampleCPU()
		for i, w := range ws {
			r := rate * float64(targets[i]) / float64(want)
			if err := w.send(workerCmd{Op: "run", Rate: r, Dur: o.StageDuration}); err != nil {
				return nil, fmt.Errorf("loadharness: worker %d: %w", i, err)
			}
		}
		merged := StageResult{TargetRate: rate, SLAMs: float64(o.SLA) / float64(time.Millisecond)}
		var lats []float64
		for i, w := range ws {
			rep, err := w.recv()
			if err != nil {
				return nil, fmt.Errorf("loadharness: worker %d: stage: %w", i, err)
			}
			merged.Conns += rep.Stage.Conns
			merged.Issued += rep.Stage.Issued
			merged.OK += rep.Stage.OK
			merged.NotFound += rep.Stage.NotFound
			merged.Errors += rep.Stage.Errors
			merged.WithinSLA += rep.Stage.WithinSLA
			lats = append(lats, rep.Lats...)
		}
		merged.CoreUtil = cpuUtil(before, sampleCPU())
		stopProf()
		finalizeStage(&merged, lats, o.StageDuration)
		res.Stages = append(res.Stages, merged)
		progressStage(o, stage, merged)
	}
	res.Peak = res.Stages[len(res.Stages)-1]
	return res, nil
}

// splitEven spreads total across n near-equal shares.
func splitEven(total, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = total / n
		if i < total%n {
			out[i]++
		}
	}
	return out
}
