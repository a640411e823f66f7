// Command realbench is the repository's benchmark of the real serving
// path. In one process, on loopback, it drives pipelined wireclient
// connections → server.BinFront → the nodes' binary API → the group-commit
// batcher → raft with its tuner → the UDP/TCP transport → kv apply, and
// reports end-to-end metrics (trace 0) or per-layer metrics from a
// separate traced run (trace 1) as one JSON line:
//
//	bash realbench/run.sh --workload mixed-2k --seed 1 --seconds 10 --trace 0
//
// Inputs are drawn from --seed; every run checks the values it reads
// against a model of the puts it sent and exits non-zero on a violation.
// BENCHMARK.json at the repository root lists the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// processStart anchors set-up timing: every timestamp the run reports is
// taken on the monotonic clock relative to it.
var processStart = time.Now()

// workload is one named traffic mix.
type workload struct {
	tuner string
	load  string
	run   func(cfg config, w workload, out *output) error
	// openRate > 0 drives an open loop at that many requests per second
	// with putPct percent puts; otherwise depth puts stay in flight.
	openRate float64
	putPct   int
	depth    int
}

// workloads holds the BENCHMARK.json workloads and two runnable by name
// only: the steady loads under Dynatune, whose spurious elections fail a
// varying share of requests (README.md).
var workloads = map[string]workload{
	"mixed-2k": {
		tuner: tunerStatic, run: runSteady, openRate: 2000, putPct: 10,
		load: "open loop, 2000 req/s, 90% lease-read get / 10% put, 2 connections",
	},
	"mixed-2k-dynatune": {
		tuner: tunerDynatune, run: runSteady, openRate: 2000, putPct: 10,
		load: "open loop, 2000 req/s, 90% lease-read get / 10% put, 2 connections",
	},
	"put-closed": {
		tuner: tunerStatic, run: runSteady, depth: 256,
		load: "closed loop, 100% put, 256 in flight over 2 connections",
	},
	"put-closed-dynatune": {
		tuner: tunerDynatune, run: runSteady, depth: 256,
		load: "closed loop, 100% put, 256 in flight over 2 connections",
	},
	"leader-crash": {
		tuner: tunerDynatune, run: runCrash,
		load: "per trial: fresh fleet, open loop 500 put/s retried until acknowledged, leader Stop() after 200 ms",
	},
}

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// setups is how many fleets a steady workload boots; setup_s is their
	// median. The first serves the measured window, the rest boot after.
	setups int
	warmup time.Duration
	// minTrials is the fewest leader-crash trials a run makes.
	minTrials int
	// poolSize is how many leader-crash fleets boot ahead of their trial.
	poolSize int
	outDir   string
	// corrupt flips a byte of one final read, to prove the check fires.
	corrupt bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record describes the run behind a result.
type record struct {
	Workload    string               `json:"workload"`
	Seed        uint64               `json:"seed"`
	Seconds     float64              `json:"seconds"`
	Trace       bool                 `json:"trace"`
	NProc       int                  `json:"nproc"`
	GOMAXPROCS  int                  `json:"gomaxprocs"`
	GoVersion   string               `json:"go_version"`
	Network     string               `json:"network"`
	Fleet       string               `json:"fleet"`
	Tuner       string               `json:"tuner"`
	Load        string               `json:"load"`
	Samples     map[string]int       `json:"samples"`
	GenLateP99  float64              `json:"gen_late_p99_ms"`
	FailFrac    float64              `json:"fail_frac"`
	Elections   int                  `json:"elections"`
	FirstTimedS float64              `json:"process_start_to_first_timed_request_s"`
	OTS         string               `json:"ots"`
	Slices      map[string][]float64 `json:"slices,omitempty"`
	// Unbounded holds figures the run measured but BENCHMARK.json does not
	// bound: across runs on a shared 2-core host, the tail quantiles and
	// process CPU per op spread wider than any bound the benchmark may set.
	Unbounded map[string]float64 `json:"unbounded,omitempty"`
	Trials    []trialSummary     `json:"trials,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Violation string             `json:"violation,omitempty"`
}

// trialSummary is one leader crash in a run record.
type trialSummary struct {
	SetupS    float64 `json:"setup_s"`
	EtMs      float64 `json:"et_ms"`
	DetectMs  float64 `json:"detect_ms"`
	ElectMs   float64 `json:"elect_ms"`
	OTSMs     float64 `json:"ots_ms"`
	Elections int     `json:"elections"`
	Retries   int     `json:"retries"`
	Traced    bool    `json:"traced,omitempty"`
}

func summarize(t trialResult) trialSummary {
	return trialSummary{
		SetupS: t.setup.Seconds(), EtMs: t.etMs, DetectMs: ms(t.detect), ElectMs: ms(t.elect),
		OTSMs: ms(t.ots), Elections: t.elections, Retries: t.retries, Traced: t.traced,
	}
}

// output is what a workload run fills in.
type output struct {
	res result
	rec record
}

func (o *output) set(name string, v float64, unit string) {
	o.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	cfg.outDir = filepath.Join(".bench_build", "realbench")
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace != 0
	cfg.setups, cfg.warmup, cfg.minTrials, cfg.poolSize = 11, time.Second, 5, 4

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "realbench:", err)
		os.Exit(1)
	}
	recLine, err := json.Marshal(out.rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "realbench: record:", err)
		os.Exit(1)
	}
	resLine, err := json.Marshal(out.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "realbench: result:", err)
		os.Exit(1)
	}
	fmt.Printf("record %s\n", recLine)
	fmt.Printf("%s\n", resLine)
	if !out.res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and stores its record and result in
// cfg.outDir/results.
func run(cfg config) (*output, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	out := &output{
		res: result{Correct: true, Metrics: map[string]metric{}},
		rec: record{
			Workload:   cfg.workload,
			Seed:       cfg.seed,
			Seconds:    cfg.seconds.Seconds(),
			Trace:      cfg.trace,
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Network:    "loopback, no injected delay",
			Fleet:      fmt.Sprintf("1 group × %d nodes, %d keys preloaded, %d B values, batch window %v", fleetNodes, numKeys, valueSize, batchWindow),
			Tuner:      tunerDesc(w.tuner),
			Load:       w.load,
			Samples:    map[string]int{},
		},
	}
	if err := w.run(cfg, w, out); err != nil {
		return nil, err
	}
	if out.res.Attempted > 0 {
		out.rec.FailFrac = float64(out.res.Failed) / float64(out.res.Attempted)
	}
	if err := store(cfg, out); err != nil {
		return nil, err
	}
	return out, nil
}

func tunerDesc(kind string) string {
	if kind == tunerStatic {
		return "static: Et 1 s, h 100 ms (etcd defaults)"
	}
	return "dynatune: defaults (fallback Et 1 s, h 100 ms; s 2, x 0.999, min list 10)"
}

// fail marks the run incorrect with the model's first violation.
func (o *output) fail(err error) {
	o.res.Correct = false
	if o.rec.Violation == "" {
		o.rec.Violation = err.Error()
	}
}

func store(cfg config, out *output) error {
	dir := filepath.Join(cfg.outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Record record `json:"record"`
		Result result `json:"result"`
	}{out.rec, out.res}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, b2i(cfg.trace))
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
