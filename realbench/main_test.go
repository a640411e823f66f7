package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tiny shrinks a run to seconds: one set-up, two crash trials.
func tiny(t *testing.T, workload string, trace bool) config {
	return config{
		workload:  workload,
		seed:      7,
		seconds:   500 * time.Millisecond,
		trace:     trace,
		setups:    1,
		warmup:    100 * time.Millisecond,
		minTrials: 2,
		poolSize:  2,
		outDir:    t.TempDir(),
	}
}

// TestMetricsMatchBenchmark runs every listed workload at tiny scale,
// untraced and traced, and checks that it prints exactly the metrics
// BENCHMARK.json declares, with their units, and passes its checks.
func TestMetricsMatchBenchmark(t *testing.T) {
	bf := loadBenchmark(t)
	if len(bf.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			name := w.Name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				out, err := run(tiny(t, w.Name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !out.res.Correct || out.res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d: %s", out.res.Correct, out.res.Attempted, out.rec.Violation)
				}
				var got, exp []string
				for n, m := range out.res.Metrics {
					got = append(got, n+" "+m.Unit)
				}
				for _, m := range want {
					exp = append(exp, m.Name+" "+m.Unit)
				}
				sort.Strings(got)
				sort.Strings(exp)
				if strings.Join(got, ",") != strings.Join(exp, ",") {
					t.Fatalf("metrics differ from BENCHMARK.json\n got: %v\nwant: %v", got, exp)
				}
			})
		}
	}
}

// TestCorruptReadFailsRun flips one byte of a final read and expects the
// run to be marked incorrect.
func TestCorruptReadFailsRun(t *testing.T) {
	cfg := tiny(t, "mixed-2k", false)
	cfg.corrupt = true
	out, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.res.Correct {
		t.Fatal("a corrupted read passed the correctness check")
	}
	if !strings.Contains(out.rec.Violation, "corrupt") {
		t.Fatalf("violation %q does not name the corruption", out.rec.Violation)
	}
}

// TestModelRejectsSupersededRead checks the staleness rule directly: a
// read may not return a put that a later acknowledged put superseded.
func TestModelRejectsSupersededRead(t *testing.T) {
	m := newModel(time.Now())
	first := m.send(3)
	m.acked(3, first)
	second := m.send(3)
	m.acked(3, second)
	if err := m.checkRead(3, makeValue(3, second), m.now()); err != nil {
		t.Fatalf("newest value rejected: %v", err)
	}
	if err := m.checkRead(3, makeValue(3, first), m.now()); err == nil {
		t.Fatal("superseded value accepted")
	}
	if err := m.checkRead(3, makeValue(3, second+1), m.now()); err == nil {
		t.Fatal("never-written value accepted")
	}
}
