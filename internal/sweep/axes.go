package sweep

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"dynatune/internal/scenario"
	"dynatune/internal/scenario/bind"
)

// The known axes. Each definition parses one operator-supplied value and
// applies it to a cell's spec; anything a value makes unrunnable is
// caught by the spec validation that follows in Cells.

type def func(spec *scenario.Spec, value string) error

var defs = map[string]def{
	// Cluster size (per-group size for sharded topologies).
	"n": func(spec *scenario.Spec, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return fmt.Errorf("axis n: %q is not a positive integer", v)
		}
		spec.Topology.N = n
		if spec.Topology.Groups > 0 {
			spec.Topology.NodesPerGroup = n
		}
		return nil
	},
	// Packet-loss rate on every link segment (geo topologies: the matrix
	// loss).
	"loss": func(spec *scenario.Spec, v string) error {
		loss, err := strconv.ParseFloat(v, 64)
		if err != nil || loss < 0 || loss >= 1 {
			return fmt.Errorf("axis loss: %q is not a rate in [0, 1)", v)
		}
		if len(spec.Topology.Regions) > 0 {
			spec.Topology.GeoLoss = loss
			return nil
		}
		if len(spec.Network.Segments) == 0 {
			// bind would fall back to its default profile: the cell
			// would be labelled with a loss that was never applied.
			return fmt.Errorf("axis loss: the base spec has no network segments to apply it to")
		}
		spec.Network = spec.Network.WithLoss(loss)
		return nil
	},
	// RTT on every link segment, e.g. 50ms (not valid for geo topologies).
	"rtt": func(spec *scenario.Spec, v string) error {
		rtt, err := time.ParseDuration(v)
		if err != nil || rtt <= 0 {
			return fmt.Errorf("axis rtt: %q is not a positive duration", v)
		}
		if len(spec.Topology.Regions) > 0 {
			return fmt.Errorf("axis rtt: geo topologies take their RTTs from the region matrix")
		}
		if len(spec.Network.Segments) == 0 {
			return fmt.Errorf("axis rtt: the base spec has no network segments to apply it to")
		}
		spec.Network = spec.Network.WithRTT(scenario.Duration(rtt))
		return nil
	},
	// System under test: raft | raft-low | dynatune | dynatune-ext | fix-k.
	"variant": func(spec *scenario.Spec, v string) error {
		// bind owns the name registry; asking it keeps one source of
		// truth (and accepts the display spellings spec files may use).
		probe := spec.Variant
		probe.Name = v
		if _, err := bind.Variant(probe); err != nil {
			return fmt.Errorf("axis variant: %w", err)
		}
		spec.Variant.Name = v
		return nil
	},
	// Raft group count (throughput scenarios; all values must be positive).
	"shards": func(spec *scenario.Spec, v string) error {
		g, err := strconv.Atoi(v)
		if err != nil || g < 1 {
			return fmt.Errorf("axis shards: %q is not a positive integer", v)
		}
		spec.Topology.Groups = g
		if spec.Topology.NodesPerGroup == 0 {
			spec.Topology.NodesPerGroup = spec.Topology.N
		}
		return nil
	},
	// scenario.Scale fraction shrinking trials/horizon per cell, in (0, 1].
	"scale": func(spec *scenario.Spec, v string) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 || f > 1 {
			return fmt.Errorf("axis scale: %q is not a fraction in (0, 1]", v)
		}
		*spec = scenario.Scale(*spec, f)
		return nil
	},
	// Delay jitter on every link segment, e.g. 5ms (not valid for geo
	// topologies).
	"jitter": func(spec *scenario.Spec, v string) error {
		j, err := time.ParseDuration(v)
		if err != nil || j < 0 {
			return fmt.Errorf("axis jitter: %q is not a non-negative duration", v)
		}
		if len(spec.Topology.Regions) > 0 {
			return fmt.Errorf("axis jitter: geo topologies take jitter from geo_jitter_frac")
		}
		if len(spec.Network.Segments) == 0 {
			return fmt.Errorf("axis jitter: the base spec has no network segments to apply it to")
		}
		spec.Network = spec.Network.WithJitter(scenario.Duration(j))
		return nil
	},
	// Zipf exponent of the sharded loadgen's key sampler, > 1 (0 = uniform).
	"zipf": func(spec *scenario.Spec, v string) error {
		z, err := strconv.ParseFloat(v, 64)
		if err != nil || (z != 0 && z <= 1) {
			return fmt.Errorf("axis zipf: %q is not 0 (uniform) or an exponent > 1", v)
		}
		if spec.Topology.Groups == 0 || spec.Workload == nil {
			// Only the sharded generator samples keys; a single-group
			// cell would be labelled with a skew that was never applied.
			return fmt.Errorf("axis zipf: needs a sharded throughput base (the keyed generator)")
		}
		spec.Workload.Zipf = z
		return nil
	},
	// Override one scalar field of a scheduled fault:
	// [<idx>.]<field>:<value>, field in
	// duration|at|every|deadline|rtt|jitter|reorder|reorder_every|loss (e.g.
	// duration:500ms or 1.loss:0.2).
	"fault": func(spec *scenario.Spec, v string) error {
		idx := 0
		rest := v
		// An optional leading "<idx>." picks the fault; the default is
		// the first. The probe is unambiguous: a field name never parses
		// as an integer.
		if dot := strings.IndexByte(v, '.'); dot > 0 {
			if i, err := strconv.Atoi(v[:dot]); err == nil {
				idx, rest = i, v[dot+1:]
			}
		}
		field, val, ok := strings.Cut(rest, ":")
		if !ok {
			return fmt.Errorf("axis fault: %q is not [<idx>.]<field>:<value>", v)
		}
		if len(spec.Faults) == 0 {
			return fmt.Errorf("axis fault: the base spec schedules no faults to override")
		}
		if idx < 0 || idx >= len(spec.Faults) {
			return fmt.Errorf("axis fault: index %d out of range (spec schedules %d fault(s))", idx, len(spec.Faults))
		}
		f := &spec.Faults[idx]
		switch field {
		case "loss":
			loss, err := strconv.ParseFloat(val, 64)
			if err != nil || loss < 0 || loss >= 1 {
				return fmt.Errorf("axis fault: loss %q is not a rate in [0, 1)", val)
			}
			f.Loss = loss
		case "duration", "at", "every", "deadline", "rtt", "jitter", "reorder", "reorder_every":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return fmt.Errorf("axis fault: %s %q is not a non-negative duration", field, val)
			}
			dd := scenario.Duration(d)
			switch field {
			case "duration":
				f.Duration = dd
			case "at":
				f.At = dd
			case "every":
				f.Every = dd
			case "deadline":
				f.Deadline = dd
			case "rtt":
				f.RTT = dd
			case "jitter":
				f.Jitter = dd
			case "reorder":
				f.Reorder = dd
			case "reorder_every":
				f.ReorderEvery = dd
			}
		default:
			return fmt.Errorf("axis fault: unknown field %q", field)
		}
		return nil
	},
	// Live rebalance mid-ramp: +k adds k groups, -k removes k (sharded
	// throughput).
	"groups-delta": func(spec *scenario.Spec, v string) error {
		k, err := strconv.Atoi(v)
		if err != nil || k == 0 {
			return fmt.Errorf("axis groups-delta: %q is not a non-zero integer", v)
		}
		if spec.Topology.Groups == 0 || spec.Measure != scenario.MeasureThroughput || spec.Workload == nil {
			return fmt.Errorf("axis groups-delta: needs a sharded throughput base")
		}
		kind := scenario.FaultAddGroup
		count := k
		if k < 0 {
			kind, count = scenario.FaultRemoveGroup, -k
		}
		f := scenario.Fault{
			Kind: kind, Count: count,
			// Fire at mid-ramp so pre/mid/post phase buckets all fill;
			// successive moves are spaced for the drain to converge
			// (overlapping moves are skipped, not queued).
			At:       scenario.Duration(spec.Workload.Ramp().Duration() / 2),
			Deadline: scenario.Duration(15 * time.Second),
		}
		if count > 1 {
			f.Every = scenario.Duration(10 * time.Second)
		}
		spec.Faults = append(spec.Faults, f)
		return nil
	},
}

func axisDef(name string) (def, error) {
	d, ok := defs[name]
	if !ok {
		return nil, fmt.Errorf("sweep: unknown axis %q (known: %s)", name, strings.Join(AxisNames(), ", "))
	}
	return d, nil
}

// AxisNames lists the known axes in sorted order.
func AxisNames() []string {
	out := make([]string, 0, len(defs))
	for n := range defs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
