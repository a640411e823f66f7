// Package sweep is the parameter-grid campaign engine above the scenario
// layer: it takes one base scenario.Spec (a registry entry or a spec
// file) plus a set of grid axes — cluster size, link loss and RTT, tuner
// variant, shard count, scenario scale — expands the cross-product into
// concrete specs, executes every (cell, repetition) unit on the
// deterministic sharded trial runner, and aggregates each cell's
// measurement into metrics.Summary rows (mean/p50/p99 over the pooled
// samples plus a 95% CI over the per-rep means).
//
// Everything is deterministic: unit seeds derive from the campaign seed
// and the unit's grid coordinates alone — never from the worker that
// happens to execute the unit — and results merge in grid order, so a
// campaign's CSV/JSON report is byte-identical for any worker count.
// Reports feed the baseline gate (baseline.go): diffing a campaign
// against a prior report flags per-cell regressions beyond a relative
// threshold, turning any scenario into a perf gate.
package sweep

import (
	"fmt"
	"strings"

	"dynatune/internal/scenario"
)

// DefaultMaxCells bounds a campaign's grid unless the caller raises it:
// cross-products grow fast, and a mistyped axis should fail loudly, not
// queue a thousand simulations.
const DefaultMaxCells = 64

// Axis is one swept dimension: a known axis name (see axes.go) and the
// values it takes, in sweep order. Values stay strings — exactly what the
// operator typed — and are parsed by the axis definition at expansion, so
// the report echoes the operator's spelling.
type Axis struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// ParseAxis parses one "-axis name=v1,v2,..." flag.
func ParseAxis(s string) (Axis, error) {
	name, vals, ok := strings.Cut(s, "=")
	if !ok || name == "" || vals == "" {
		return Axis{}, fmt.Errorf("sweep: axis %q is not name=v1,v2,...", s)
	}
	ax := Axis{Name: name, Values: strings.Split(vals, ",")}
	for _, v := range ax.Values {
		if v == "" {
			return Axis{}, fmt.Errorf("sweep: axis %q has an empty value", s)
		}
	}
	return ax, nil
}

// Campaign is one sweep: a base spec crossed with the axes.
type Campaign struct {
	// Base is the scenario every cell derives from. Its own Seed is
	// ignored — unit seeds derive from the campaign Seed.
	Base scenario.Spec
	// Axes are applied in order; the cross-product enumerates the first
	// axis slowest and the last axis fastest (row-major), which fixes the
	// report's row order.
	Axes []Axis
	// Reps is the number of independent repetitions per cell (default 1),
	// each a full run of the cell's spec on its own derived seed.
	Reps int
	// Seed is the campaign seed all unit seeds derive from.
	Seed int64
	// MaxCells guards the expansion (default DefaultMaxCells).
	MaxCells int
	// Workers is the parallel worker count over (cell, rep) units
	// (default cluster.TrialWorkers()). It never affects results.
	Workers int
}

// Cell is one realized grid point.
type Cell struct {
	// Values holds one value per campaign axis, in axis order.
	Values []string
	// Spec is the base spec with every axis value applied.
	Spec scenario.Spec
}

// Key renders the cell as "n=3 loss=0.1" — the identity baseline
// comparison matches rows by. A value beyond the axis list (a mangled
// or version-skewed report) keeps a positional name rather than
// panicking: the key simply matches nothing, which Compare reports.
func (c Cell) Key(axes []Axis) string {
	parts := make([]string, len(c.Values))
	for i, v := range c.Values {
		name := fmt.Sprintf("axis%d", i)
		if i < len(axes) {
			name = axes[i].Name
		}
		parts[i] = name + "=" + v
	}
	return strings.Join(parts, " ")
}

// Cells expands the campaign's cross-product in row-major order (first
// axis slowest), applying each axis to a clone of the base spec and
// validating every resulting cell — a grid point the engine cannot run
// fails the whole campaign here, before anything executes.
func (c Campaign) Cells() ([]Cell, error) {
	if len(c.Axes) == 0 {
		return nil, fmt.Errorf("sweep: campaign has no axes (use the scenario command for single runs)")
	}
	seen := map[string]bool{}
	total := 1
	for _, ax := range c.Axes {
		if _, err := axisDef(ax.Name); err != nil {
			return nil, err
		}
		if seen[ax.Name] {
			return nil, fmt.Errorf("sweep: axis %q given twice", ax.Name)
		}
		seen[ax.Name] = true
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no values", ax.Name)
		}
		total *= len(ax.Values)
	}
	max := c.MaxCells
	if max <= 0 {
		max = DefaultMaxCells
	}
	if total > max {
		return nil, fmt.Errorf("sweep: grid expands to %d cells (max %d); shrink an axis or raise -max-cells", total, max)
	}

	cells := make([]Cell, 0, total)
	idx := make([]int, len(c.Axes))
	for {
		cell := Cell{Values: make([]string, len(c.Axes)), Spec: c.Base.Clone()}
		for i, ax := range c.Axes {
			v := ax.Values[idx[i]]
			cell.Values[i] = v
			apply, _ := axisDef(ax.Name)
			if err := apply(&cell.Spec, v); err != nil {
				return nil, fmt.Errorf("sweep: cell %s: %w", cell.Key(c.Axes), err)
			}
		}
		cell.Spec.Name = c.Base.Name
		if err := cell.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: cell %s: %w", cell.Key(c.Axes), err)
		}
		cells = append(cells, cell)
		// Odometer increment, last axis fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(c.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return cells, nil
		}
	}
}

// UnitSeed derives the engine seed of one (cell, rep) unit from the
// campaign seed and the unit's grid coordinates alone (splitmix64-style
// mixing, so neighbouring cells do not share seed arithmetic with the
// trial runner's per-shard stride). Depending only on indices is what
// makes campaign output independent of the worker count.
func UnitSeed(campaign int64, cell, rep int) int64 {
	z := uint64(campaign) + 0x9E3779B97F4A7C15*uint64(cell+1) + 0xBF58476D1CE4E5B9*uint64(rep+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	s := int64(z &^ (1 << 63))
	if s == 0 {
		s = 1
	}
	return s
}
