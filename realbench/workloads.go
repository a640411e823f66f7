package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dynatune/internal/raft"
	"dynatune/internal/server"
)

// runSteady runs mixed-2k and the closed-loop put workload: one set-up,
// a warm-up, then the measured window. An untraced run then boots
// cfg.setups-1 more fleets for the set-up medians, after the window so
// their churn cannot disturb it. A traced run probes during the window's
// second half, compares it with the untraced first half, and ends with
// one leader crash for the failover layers.
func runSteady(cfg config, w workload, out *output) error {
	var cpu sync.Mutex
	rf := prepareFleet(w.tuner, processStart, &cpu, false, nil)
	if rf.err != nil {
		return fmt.Errorf("set-up: %w", rf.err)
	}
	f := rf.f
	defer f.stop()
	setups, colds := []float64{rf.setup.Seconds()}, []float64{ms(rf.coldOTS)}
	leader, ok := f.leader()
	if !ok {
		return errors.New("no leader after set-up")
	}

	slices := max(1, int(cfg.seconds/time.Second))
	from := time.Now().Add(cfg.warmup)
	to := from.Add(cfg.seconds)
	mid := from.Add(cfg.seconds / 2)
	full := newRecorder(from, to, slices)
	untraced := newRecorder(from, mid, 1)
	traced := newRecorder(mid, to, 1)
	recs := recorders{full}
	var tr *tracer
	probed := make(chan windowSample, 1)
	if cfg.trace {
		recs = append(recs, untraced, traced)
		tr = newTracer(processStart)
		go func() { probed <- probeWindow(f, leader, mid, to, tr, cfg.seed) }()
	}
	sampled := make(chan []counters, 1)
	go func() { sampled <- sampleSlices(f.srvs[leader], from, full.slice, slices) }()
	if w.openRate > 0 {
		openLoop(f, recs, cfg.seed, w.openRate, w.putPct, to)
	} else {
		closedLoop(f, recs, cfg.seed, w.depth, to)
	}
	snaps := <-sampled
	if err := f.verify(cfg.corrupt); err != nil && f.model.err() == nil {
		return err
	}
	if err := f.model.err(); err != nil {
		out.fail(err)
	}

	out.res.Attempted, out.res.Failed = full.attempted, full.failed
	out.rec.Elections = f.events.count(raft.EventLeaderElected, from, to)
	out.rec.FirstTimedS = from.Sub(processStart).Seconds()
	out.rec.GenLateP99 = quantile(full.late, 0.99)
	out.rec.OTS = "cold start: fleet boot to first acknowledged write, median over the run's set-ups"
	if full.firstFail != nil {
		out.rec.Notes = append(out.rec.Notes, "first failure: "+full.firstFail.Error())
	}
	if !cfg.trace {
		f.stop()
		more, moreCold, err := setUps(cfg.setups-1, w.tuner)
		if err != nil {
			return err
		}
		setups, colds = append(setups, more...), append(colds, moreCold...)
		out.rec.Samples["setup_s"] = len(setups)
		out.rec.Samples["ots_ms"] = len(colds)
		var p50s, p90s, p99s, rates, cpus []float64
		minN, minBeyond90, minBeyond99 := -1, -1, -1
		for i, lat := range full.lat {
			n := full.completed[i]
			p50s = append(p50s, quantile(lat, 0.50))
			p90s = append(p90s, quantile(lat, 0.90))
			p99s = append(p99s, quantile(lat, 0.99))
			rates = append(rates, float64(n)/snaps[i+1].at.Sub(snaps[i].at).Seconds())
			cpus = append(cpus, ratio(float64(snaps[i+1].cpu-snaps[i].cpu)/float64(time.Microsecond), float64(n)))
			if minN < 0 || len(lat) < minN {
				minN = len(lat)
			}
			if b := beyond(lat, 0.90); minBeyond90 < 0 || b < minBeyond90 {
				minBeyond90 = b
			}
			if b := beyond(lat, 0.99); minBeyond99 < 0 || b < minBeyond99 {
				minBeyond99 = b
			}
		}
		out.rec.Slices = map[string][]float64{"p50_ms": p50s, "p90_ms": p90s, "p99_ms": p99s, "ops_s": rates, "cpu_us_per_op": cpus}
		out.rec.Samples["slices"] = slices
		out.rec.Samples["per_slice_min"] = minN
		out.rec.Samples["beyond_p90_per_slice_min"] = minBeyond90
		out.rec.Samples["beyond_p99_per_slice_min"] = minBeyond99
		out.rec.Unbounded = map[string]float64{"p90_ms": median(p90s), "p99_ms": median(p99s), "cpu_us_per_op": median(cpus)}
		out.set("p50_ms", median(p50s), "ms")
		out.set("ops_s", median(rates), "1/s")
		out.set("ots_ms", median(colds), "ms")
		out.set("setup_s", median(setups), "s")
		return nil
	}

	ws := <-probed
	if ws.err != nil {
		return ws.err
	}
	crash, err := crashTrial(f, cfg.seed, 0, false, nil)
	if err != nil {
		return fmt.Errorf("closing crash: %w", err)
	}
	if err := f.model.err(); err != nil {
		out.fail(err)
	}
	out.rec.Trials = []trialSummary{summarize(crash)}
	gets := traced.gets
	if len(gets) == 0 {
		gets = tr.durations(spanFrontGet)
	}
	layers(out, layerInputs{
		tr:        tr,
		d:         ws.d,
		ops:       len(traced.puts) + len(traced.gets),
		putP50:    median(traced.puts),
		getP50:    median(gets),
		tracedP50: median(traced.all()),
		p50:       median(untraced.all()),
		late:      traced.late,
		etMs:      median(ws.ets),
		elections: out.rec.Elections,
		failFrac:  ratio(float64(full.failed), float64(full.attempted)),
		trials:    []trialResult{crash},
	})
	return writeSpans(cfg, tr)
}

// setUps boots n fleets at once — their elections only wait, so they
// overlap — measures each and stops it. Preloads take turns, and set-up
// time leaves the wait for a turn out.
func setUps(n int, tuner string) (setups, colds []float64, err error) {
	var cpu sync.Mutex
	ready := make(chan readyFleet, n)
	for i := 0; i < n; i++ {
		go func() { ready <- prepareFleet(tuner, processStart, &cpu, false, nil) }()
	}
	for i := 0; i < n; i++ {
		rf := <-ready
		if rf.err != nil {
			if err == nil {
				err = fmt.Errorf("set-up: %w", rf.err)
			}
			continue
		}
		rf.f.stop()
		setups = append(setups, rf.setup.Seconds())
		colds = append(colds, ms(rf.coldOTS))
	}
	return setups, colds, err
}

// sampleSlices snapshots s and the process at every slice boundary of
// the window starting at from.
func sampleSlices(s *server.Server, from time.Time, slice time.Duration, slices int) []counters {
	snaps := make([]counters, 0, slices+1)
	for i := 0; i <= slices; i++ {
		time.Sleep(time.Until(from.Add(time.Duration(i) * slice)))
		snaps = append(snaps, snapshot(s))
	}
	return snaps
}

// windowSample is what probeWindow measured over its interval.
type windowSample struct {
	d   delta
	ets []float64 // followers' highest Et, sampled every 100 ms
	err error
}

// probeWindow runs the probe stream against leader over [from, to),
// snapshotting its layers at both ends and sampling the followers' Et.
func probeWindow(f *fleet, leader int, from, to time.Time, tr *tracer, seed uint64) windowSample {
	time.Sleep(time.Until(from))
	p, err := newProber(tr, f, leader, seed)
	if err != nil {
		return windowSample{err: err}
	}
	stop := make(chan struct{})
	var probing sync.WaitGroup
	probing.Add(1)
	go func() { defer probing.Done(); p.run(stop) }()
	var ws windowSample
	c0 := snapshot(f.srvs[leader])
	for time.Now().Add(100 * time.Millisecond).Before(to) {
		time.Sleep(100 * time.Millisecond)
		ws.ets = append(ws.ets, maxOf(f.followerEts(leader)))
	}
	time.Sleep(time.Until(to))
	ws.d = diff(c0, snapshot(f.srvs[leader]))
	close(stop)
	probing.Wait()
	return ws
}

// runCrash runs leader-crash trials on fresh Dynatune fleets until
// cfg.seconds have passed since the first (and at least cfg.minTrials).
// Fleets boot cfg.poolSize at a time in the background. A traced run
// probes on every other trial, so its untraced trials give the overhead
// baseline.
func runCrash(cfg config, w workload, out *output) error {
	var cpu sync.Mutex
	quit := make(chan struct{})
	pool := make(chan readyFleet, cfg.poolSize+1)
	launched, consumed := 0, 0
	launch := func() {
		launched++
		go func() { pool <- prepareFleet(w.tuner, processStart, &cpu, true, quit) }()
	}
	for i := 0; i < cfg.poolSize; i++ {
		launch()
	}
	defer func() {
		close(quit)
		for ; consumed < launched; consumed++ {
			if rf := <-pool; rf.f != nil {
				rf.f.stop()
			}
		}
	}()

	var tr *tracer
	if cfg.trace {
		tr = newTracer(processStart)
	}
	var trials []trialResult
	var start time.Time
	for len(trials) < cfg.minTrials || time.Since(start) < cfg.seconds {
		rf := <-pool
		consumed++
		if rf.err != nil {
			return fmt.Errorf("trial %d set-up: %w", len(trials)+1, rf.err)
		}
		if start.IsZero() {
			start = time.Now()
			out.rec.FirstTimedS = start.Sub(processStart).Seconds()
		}
		// Keep the pool full while trials remain: the one about to run
		// and the outstanding boots count toward cfg.minTrials.
		if time.Since(start) < cfg.seconds || len(trials)+1+launched-consumed < cfg.minTrials {
			launch()
		}
		var ttr *tracer
		if tr != nil && len(trials)%2 == 1 {
			ttr = tr
		}
		cpu.Lock()
		res, err := crashTrial(rf.f, cfg.seed, len(trials), true, ttr)
		cpu.Unlock()
		rf.f.stop()
		if merr := rf.f.model.err(); merr != nil {
			out.fail(merr)
		} else if err != nil {
			return fmt.Errorf("trial %d: %w", len(trials)+1, err)
		}
		res.setup = rf.setup
		trials = append(trials, res)
	}

	// Every end-to-end figure is a median over trials: a failover
	// occasionally takes a fallback-length election (both survivors reset
	// to the 1 s Et), and pooling samples would let one such trial swing
	// the tail and the rates of the whole run. p50 and p90 cover the puts
	// due before the crash — service while a leader serves; the outage
	// itself is ots_ms. A trial's outage delays about a tenth of its puts,
	// so a p90 over all of them would sit on the outage's edge.
	var p50s, p90s, p99s, rates, cpus, late, ots, setups []float64
	minN, minBeyond90 := -1, -1
	for _, t := range trials {
		out.res.Attempted += t.attempted
		out.res.Failed += t.failed
		out.rec.Elections += t.elections
		p50s = append(p50s, quantile(t.preLat, 0.50))
		p90s = append(p90s, quantile(t.preLat, 0.90))
		p99s = append(p99s, quantile(t.lat, 0.99))
		if n := len(t.preLat); minN < 0 || n < minN {
			minN, minBeyond90 = n, beyond(t.preLat, 0.90)
		}
		rates = append(rates, float64(len(t.lat))/t.secs)
		cpus = append(cpus, ratio(float64(t.cpu)/float64(time.Microsecond), float64(len(t.lat))))
		late = append(late, t.late...)
		ots = append(ots, ms(t.ots))
		setups = append(setups, t.setup.Seconds())
		out.rec.Trials = append(out.rec.Trials, summarize(t))
	}
	out.rec.GenLateP99 = quantile(late, 0.99)
	out.rec.Samples["slow_failovers"] = slowFailovers(trials)
	out.rec.Samples["ots_ms"] = len(trials)
	out.rec.Samples["setup_s"] = len(setups)
	out.rec.OTS = "leader crash: Stop() to the first acknowledged put scheduled after it, median over trials"
	if !cfg.trace {
		out.rec.Samples["trials"] = len(trials)
		out.rec.Samples["per_trial_min"] = minN
		out.rec.Samples["beyond_p90_per_trial_min"] = minBeyond90
		out.rec.Unbounded = map[string]float64{"p90_ms": median(p90s), "p99_all_puts_ms": median(p99s), "cpu_us_per_op": median(cpus)}
		out.set("p50_ms", median(p50s), "ms")
		out.set("ops_s", median(rates), "1/s")
		out.set("ots_ms", median(ots), "ms")
		out.set("setup_s", median(setups), "s")
		return nil
	}

	var d delta
	var tracedP50s, untracedP50s, ets []float64
	ops := 0
	for _, t := range trials {
		ets = append(ets, t.etMs)
		if t.traced {
			d.add(t.layers)
			ops += t.preCrash
			tracedP50s = append(tracedP50s, quantile(t.preLat, 0.50))
		} else {
			untracedP50s = append(untracedP50s, quantile(t.preLat, 0.50))
		}
	}
	layers(out, layerInputs{
		tr:        tr,
		d:         d,
		ops:       ops,
		putP50:    median(tracedP50s),
		getP50:    median(tr.durations(spanFrontGet)),
		tracedP50: median(tracedP50s),
		p50:       median(untracedP50s),
		late:      late,
		etMs:      median(ets),
		elections: out.rec.Elections,
		failFrac:  ratio(float64(out.res.Failed), float64(out.res.Attempted)),
		trials:    trials,
	})
	return writeSpans(cfg, tr)
}

// layerInputs is what a traced run measured.
type layerInputs struct {
	tr        *tracer
	d         delta   // leader and process activity while probing
	ops       int     // workload ops completed while probing
	putP50    float64 // e2e put p50 while probing (ms)
	getP50    float64 // e2e get p50 while probing (ms)
	tracedP50 float64 // e2e p50 while probing
	p50       float64 // e2e p50 of the same run without probes
	late      []float64
	etMs      float64
	elections int
	failFrac  float64
	trials    []trialResult // leader crashes
}

// layers sets the per-layer metrics.
func layers(out *output, in layerInputs) {
	p50 := func(name string) float64 { return median(in.tr.durations(name)) }
	var detect, elect, recover []float64
	for _, t := range in.trials {
		detect = append(detect, ms(t.detect))
		elect = append(elect, ms(t.elect))
		recover = append(recover, ms(t.ots-t.elect))
	}
	front, node := p50(spanFrontPing), p50(spanNodePing)
	propose := in.tr.durations(spanPropose)
	out.set("client.front_ping_p50_ms", front, "ms")
	out.set("client.node_ping_p50_ms", node, "ms")
	out.set("client.recover_ms", median(recover), "ms")
	out.set("client.fail_frac", in.failFrac, "frac")
	out.set("server.propose_p50_ms", quantile(propose, 0.50), "ms")
	out.set("server.propose_p99_ms", quantile(propose, 0.99), "ms")
	out.set("server.lease_read_p50_ms", p50(spanLeaseRead), "ms")
	out.set("batcher.mean_depth", ratio(float64(in.d.ops), float64(in.d.batches)), "count")
	out.set("batcher.propose_amp", ratio(float64(in.d.entries), float64(in.d.clientOps)), "frac")
	out.set("batcher.window_flush_frac", ratio(float64(in.d.windowFlushes), float64(in.d.batches)), "frac")
	out.set("raft.entries_per_s", ratio(float64(in.d.committed), in.d.secs), "1/s")
	out.set("raft.detect_ms", median(detect), "ms")
	out.set("raft.elect_ms", median(elect), "ms")
	out.set("raft.elections", float64(in.elections), "count")
	out.set("raft.slow_failover_frac", ratio(float64(slowFailovers(in.trials)), float64(len(in.trials))), "frac")
	out.set("dynatune.et_ms", in.etMs, "ms")
	out.set("kv.applies_per_s", ratio(float64(in.d.applies), in.d.secs), "1/s")
	out.set("process.cpu_us_per_op", ratio(float64(in.d.cpu)/float64(time.Microsecond), float64(in.ops)), "us")
	out.set("go.gc_cpu_frac", ratio(in.d.gcCPU, in.d.usedCPU), "frac")
	out.set("go.alloc_bytes_per_op", ratio(float64(in.d.allocs), float64(in.ops)), "B")
	out.set("gen.late_p99_ms", quantile(in.late, 0.99), "ms")
	out.set("stages.unexplained_put_ms", in.putP50-(front+node+quantile(propose, 0.50)), "ms")
	out.set("stages.unexplained_get_ms", in.getP50-(front+node+p50(spanLeaseRead)), "ms")
	out.set("trace.p50_ms", in.tracedP50, "ms")
	out.set("trace.untraced_p50_ms", in.p50, "ms")
	out.rec.Samples["probe_rounds"] = len(in.tr.durations(spanProbe))
	out.rec.Samples["probe_failures"] = in.tr.failures()
	out.rec.Samples["crash_trials"] = len(in.trials)
}

// slowFailovers counts crashes whose new leader took over 10× the
// followers' Et: both survivors fell back to the untuned timeout.
func slowFailovers(trials []trialResult) int {
	n := 0
	for _, t := range trials {
		if ms(t.elect) > 10*t.etMs {
			n++
		}
	}
	return n
}

// writeSpans stores the traced run's spans beside its record.
func writeSpans(cfg config, tr *tracer) error {
	dir := filepath.Join(cfg.outDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
}
