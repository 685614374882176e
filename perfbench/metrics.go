package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units, with the end-to-end metrics' bounds; the smoke mode
// checks that the two agree.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the simulator sees, reported by
// an untraced run (--trace 0) on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"sim_minsts_per_s", "Minst/s", "higher"},
	{"cells_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layers are the simulator's modules, in the order reports list them.
// "other" collects profile samples no layer claims (the benchmark's
// own harness, idle goroutines); it is reported so the shares sum to 1.
var layers = []string{
	"campaign", "runner", "cpu", "cache", "hier", "mem", "bus", "sim",
	"workload", "mech", "runtime", "other",
}

// perLayer are the metrics a traced run (--trace 1) reports. A metric
// that does not apply to a workload (an InOrder cost on a workload
// with no InOrder core, a campaign count on a single cell) reads 0;
// README.md lists which apply where.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out,
			metricDef{Name: l + ".self_s", Unit: "s", Better: "lower"},
			metricDef{Name: l + ".self_frac", Unit: "frac", Better: "lower"})
	}
	return append(out, []metricDef{
		{Name: "profile.covered_frac", Unit: "frac", Better: "higher"},
		{Name: "cpu.ooo.ns_per_inst", Unit: "ns", Better: "lower"},
		{Name: "cpu.inorder.ns_per_inst", Unit: "ns", Better: "lower"},
		{Name: "cpu.retries_per_inst", Unit: "1/inst", Better: "lower"},
		{Name: "cpu.ipc", Unit: "inst/cycle", Better: "higher"},
		{Name: "cache.l1d.accept_frac", Unit: "frac", Better: "higher"},
		{Name: "cache.ns_per_access", Unit: "ns", Better: "lower"},
		{Name: "cache.l1d.miss_ratio", Unit: "frac", Better: "lower"},
		{Name: "cache.l2.miss_ratio", Unit: "frac", Better: "lower"},
		{Name: "cache.prefetch_useful_frac", Unit: "frac", Better: "higher"},
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "workload.insts_generated", Unit: "count", Better: "lower"},
		{Name: "workload.ns_per_inst", Unit: "ns", Better: "lower"},
		{Name: "mem.reads", Unit: "count", Better: "lower"},
		{Name: "mem.avg_read_latency_cycles", Unit: "cycles", Better: "lower"},
		{Name: "bus.fsb.busy_frac", Unit: "frac", Better: "lower"},
		{Name: "bus.fsb.wait_cycles", Unit: "cycles", Better: "lower"},
		{Name: "runner.setup_ms", Unit: "ms", Better: "lower"},
		{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
		{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower"},
		{Name: "campaign.plan_s", Unit: "s", Better: "lower"},
		{Name: "campaign.cell_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "campaign.cell_ms_p95", Unit: "ms", Better: "lower"},
		{Name: "campaign.cell_ms_p99", Unit: "ms", Better: "lower"},
		{Name: "campaign.worker_idle_frac", Unit: "frac", Better: "lower"},
		{Name: "campaign.cache_get_ms", Unit: "ms", Better: "lower"},
		{Name: "campaign.cache_put_ms", Unit: "ms", Better: "lower"},
		{Name: "campaign.pass1_s", Unit: "s", Better: "lower"},
		{Name: "campaign.pass2_s", Unit: "s", Better: "lower"},
		{Name: "campaign.cache_hits", Unit: "count", Better: "higher"},
		{Name: "campaign.simulated", Unit: "count", Better: "lower"},
		{Name: "campaign.prefix_runs", Unit: "count", Better: "lower"},
		{Name: "campaign.checkpoint_hits", Unit: "count", Better: "higher"},
		{Name: "campaign.checkpoint_misses", Unit: "count", Better: "lower"},
		{Name: "campaign.retries", Unit: "count", Better: "lower"},
		{Name: "campaign.degraded", Unit: "count", Better: "lower"},
		{Name: "trace_overhead_frac", Unit: "frac", Better: "lower"},
		{Name: "failed_frac", Unit: "frac", Better: "lower"},
	}...)
}()

// metricValue is one reported number with its unit, the shape of the
// result line's "metrics" entries.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit fills a result's metric map from raw values, in the order and
// with the units of defs. A value the run did not produce is an error:
// every named metric is emitted on every workload.
func emit(defs []metricDef, raw map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := raw[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio returns a/b, or 0 when b is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
