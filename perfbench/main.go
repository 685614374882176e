// Command perfbench is MicroLib's same-host performance benchmark. It
// drives the simulator from one process through its public Go entry
// points and reports host-time metrics for one named workload:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it times the workload for about --seconds and prints
// the end-to-end metrics; with --trace 1 it runs the workload traced
// between two untraced runs and prints the per-layer metrics. Every
// iteration's simulated results are checked against digests recorded
// from this simulator; a mismatch makes the exit status nonzero.
// The last line of standard output is the result object; the line
// before it is a report carrying the host fingerprint.
//
// Other modes:
//
//	perfbench smoke [--workload <name>]    short self-tests of every workload
//	perfbench record --workload <name> --seeds 0-31,42 [--smoke]
//	perfbench compare base.out... -- new.out...
//
// See README.md for the workloads, the metrics and what each predicts.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"time"

	"microlib/internal/runner"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "record":
			return recordMain(args[1:])
		case "smoke":
			return smokeMain(args[1:])
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: cell-mem, cell-stall, fig8 or sweep-warm")
	seedFlag := fs.String("seed", "", "workload seed (default: the workload's default seed)")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	traceFlag := fs.Int("trace", 0, "0: time the workload; 1: one traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	def, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	seed := def.defaultSeed
	if *seedFlag != "" {
		if seed, err = strconv.ParseUint(*seedFlag, 10, 64); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: --seed:", err)
			return 2
		}
	}
	digests, err := loadDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	chk := newChecker(digestKey(def.name, false), digests)
	rep := reportBody{Workload: def.name, Seed: seed, Trace: *traceFlag, Host: fingerprint(), Model: modelNote}
	var res resultLine
	if *traceFlag == 1 {
		var tr *tracer
		res, tr, err = traceRun(def.build(seed, false), chk, &rep)
		if err == nil {
			err = tr.write(spansFile(def.name))
		}
	} else {
		res, err = timedRun(def.build(seed, false), chk, &rep, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printLines(report{rep}, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d cells failed or differ from the recorded digest\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// spansFile is where a traced run leaves its spans: name, start, end
// and parent of every span, for reading the run's span tree.
func spansFile(workload string) string {
	return filepath.Join(".bench_build", "spans-"+workload+".json")
}

// modelNote travels with every report: the digests pin the simulator
// to itself, not to hardware.
const modelNote = "unvalidated against hardware: digests are recorded from this simulator; internal/refdata is generated by it, so no error figure is given"

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the line before the result: what was run, where, on
// which code, and the per-iteration samples behind each median.
type report struct {
	Perfbench reportBody `json:"perfbench"`
}

type reportBody struct {
	Workload     string    `json:"workload"`
	Seed         uint64    `json:"seed"`
	Trace        int       `json:"trace"`
	Host         hostPrint `json:"host"`
	Digest       digest    `json:"digest"`
	DigestStatus string    `json:"digest_status"`
	// Unpinned counts cells per iteration whose simulated results the
	// digest leaves out because they do not repeat (see unpinned).
	Unpinned int                  `json:"unpinned_cells"`
	Samples  map[string][]float64 `json:"samples,omitempty"`
	Model    string               `json:"model"`
}

func printLines(v ...any) error {
	for _, x := range v {
		data, err := json.Marshal(x)
		if err != nil {
			return err
		}
		if _, err := fmt.Printf("%s\n", data); err != nil {
			return err
		}
	}
	return nil
}

// checker counts attempted and failed cells and compares every
// iteration's digest with the one recorded for its seed and with the
// run's earlier iterations on that seed.
type checker struct {
	key     string
	digests recordedDigests

	seen      map[uint64]digest // first digest per seed
	last      digest
	attempted int
	failed    int
	unpinned  int
	status    string // "match", "unrecorded" or "mismatch"
}

func newChecker(key string, digests recordedDigests) *checker {
	return &checker{key: key, digests: digests, seen: map[uint64]digest{}}
}

func (c *checker) observe(out outcome) {
	c.attempted += out.cells
	if out.unpinned > 0 && c.unpinned == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d cells of mechanisms %v are not reproducible at this commit; their results are checked for instruction counts only\n", out.unpinned, unpinnedNames())
	}
	c.unpinned = out.unpinned
	c.last = out.digest
	bad := out.errs
	found, ok := c.digests.check(c.key, out.seed, out.digest)
	first, repeat := c.seen[out.seed]
	if !repeat {
		c.seen[out.seed] = out.digest
	}
	if !ok || (repeat && first.Sim != out.digest.Sim) {
		// One digest covers the whole iteration, so a mismatch fails
		// every cell in it.
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: digest %+v differs from the recorded one or an earlier run's\n", c.key, out.seed, out.digest)
		bad = out.cells
		c.status = "mismatch"
	}
	c.failed += bad
	if !found && c.status != "mismatch" {
		c.status = "unrecorded"
		fmt.Fprintf(os.Stderr, "perfbench: no digest recorded for %s seed %d; checking repeated and traced runs against each other only\n", c.key, out.seed)
	}
	if c.status == "" {
		c.status = "match"
	}
}

func (c *checker) line(m map[string]metricValue) resultLine {
	return resultLine{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}
}

// Set-up is repeated at least setupMin times and until setupBudget has
// passed (at most setupMax times); setup_s is the median.
const (
	setupMin    = 5
	setupMax    = 100
	setupBudget = 500 * time.Millisecond
)

// timedRun measures the end-to-end metrics: repeated set-up, then
// measured iterations until the next one would end past seconds. Each
// iteration runs beside the host-speed probe, and its time is
// corrected for steal and normalized to the probe's reference speed
// (see probe.go). Set-up is timed in process CPU seconds, which leave
// out steal time: the set-ups of the cells are far shorter than the
// 10 ms in which /proc/stat counts it. Set-up times are not
// normalized: they are short and bound by allocation, which the probe
// does not represent.
func timedRun(b bench, chk *checker, rep *reportBody, seconds float64) (resultLine, error) {
	var setups []float64
	for t0 := time.Now(); len(setups) < setupMin || (len(setups) < setupMax && time.Since(t0) < setupBudget); {
		// A user's set-up runs once and inherits no garbage; collect
		// the previous repetition's before timing the next.
		runtime.GC()
		c := cpuSeconds()
		if err := b.setup(); err != nil {
			return resultLine{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, cpuSeconds()-c)
	}
	// Return the repeated set-ups' garbage to the operating system, so
	// the measured phase's peak memory is the workload's own.
	debug.FreeOSMemory()

	var walls, speeds, steals, norm, ips, cps, helds []float64
	start := time.Now()
	for iter := 0; ; iter++ {
		pr := startProbe()
		out, err := b.run(context.Background(), iter)
		ph := pr.finish()
		if err != nil {
			return resultLine{}, err
		}
		helds = append(helds, ph.held/(1<<20))
		chk.observe(out)
		w := out.wall.Seconds()
		walls = append(walls, w)
		speeds = append(speeds, ph.speed)
		steals = append(steals, ph.steal)
		n := ph.seconds(w)
		norm = append(norm, n)
		ips = append(ips, float64(out.insts)/n/1e6)
		cps = append(cps, float64(out.cells)/n)
		if time.Since(start).Seconds()+median(walls) > seconds {
			break
		}
	}
	m, err := emit(endToEnd, map[string]float64{
		"wall_s":           median(norm),
		"sim_minsts_per_s": median(ips),
		"cells_per_s":      median(cps),
		"setup_s":          median(setups),
		"peak_rss_mb":      median(helds),
	})
	if err != nil {
		return resultLine{}, err
	}
	rep.Digest, rep.DigestStatus, rep.Unpinned = chk.last, chk.status, chk.unpinned
	rep.Samples = map[string][]float64{"raw_wall_s": walls, "steal_s": steals, "speed": speeds, "peak_rss_mb": helds, "setup_s": setups}
	return chk.line(m), nil
}

// runtimeSample reads the Go runtime's allocation and GC counters.
type runtimeSample struct {
	gcCycles, allocBytes uint64
	gcCPU, totalCPU      float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		gcCycles:   s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// traceRun runs the workload untraced, traced under a CPU profile, and
// untraced again, and derives the per-layer metrics from the traced
// run. Every run's digest is checked. It returns the traced run's
// spans with the result.
func traceRun(b bench, chk *checker, rep *reportBody) (resultLine, *tracer, error) {
	if err := b.setup(); err != nil {
		return resultLine{}, nil, fmt.Errorf("setup: %w", err)
	}
	ctx := context.Background()
	// Each of the three runs is timed beside the host-speed probe, so
	// the overhead compares corrected times.
	pr := startProbe()
	plain, err := b.run(ctx, 0)
	ph1 := pr.finish()
	if err != nil {
		return resultLine{}, nil, err
	}
	chk.observe(plain)

	tr := newTracer()
	var prof bytes.Buffer
	before := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return resultLine{}, nil, err
	}
	pr = startProbe()
	out, err := b.traced(ctx, tr)
	phT := pr.finish()
	pprof.StopCPUProfile()
	after := readRuntime()
	if err != nil {
		return resultLine{}, nil, err
	}
	// The checker fails the traced run's cells if its digest differs
	// from the untraced run's.
	chk.observe(out)
	// A second untraced run after the traced one, so the overhead
	// compares against both a colder and a warmer process.
	pr = startProbe()
	plain2, err := b.run(ctx, 0)
	ph2 := pr.finish()
	if err != nil {
		return resultLine{}, nil, err
	}
	chk.observe(plain2)
	untraced := (ph1.seconds(plain.wall.Seconds()) + ph2.seconds(plain2.wall.Seconds())) / 2

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return resultLine{}, nil, err
	}
	lt := attributeProfile(samples)

	raw := map[string]float64{}
	for _, d := range perLayer {
		raw[d.Name] = 0 // not applicable unless measured below
	}
	for k, v := range out.counters {
		if _, ok := raw[k]; ok {
			raw[k] = v
		}
	}
	for _, l := range layers {
		raw[l+".self_s"] = float64(lt.layer[l]) / 1e9
		raw[l+".self_frac"] = ratio(float64(lt.layer[l]), float64(lt.total))
	}
	raw["profile.covered_frac"] = 1 - raw["other.self_frac"]
	raw["cpu.ooo.ns_per_inst"] = ratio(float64(lt.cpuBy["ooo"]), out.counters["cpu.ooo.insts"])
	raw["cpu.inorder.ns_per_inst"] = ratio(float64(lt.cpuBy["inorder"]), out.counters["cpu.inorder.insts"])
	raw["sim.ns_per_event"] = ratio(float64(lt.layer["sim"]), out.counters["sim.events"])
	raw["cache.ns_per_access"] = ratio(float64(lt.layer["cache"]), out.counters["cache.probes"])
	if batches := tr.durations("stream.batch"); len(batches) > 0 {
		raw["workload.ns_per_inst"] = ratio(sumOf(batches)*1e9, out.counters["workload.insts_generated"])
	} else {
		raw["workload.ns_per_inst"] = ratio(float64(lt.layer["workload"]), out.counters["workload.insts_generated"])
	}

	raw["runtime.alloc_mb"] = float64(after.allocBytes-before.allocBytes) / 1e6
	raw["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	raw["runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)

	// Machine construction happens inside runner.Run and the
	// scheduler, out of reach; time the public constructor from
	// outside, after the run, on the options of every cell.
	all, err := b.machines()
	if err != nil {
		return resultLine{}, nil, err
	}
	for _, opts := range all {
		sp := tr.begin("machine", -1)
		m, err := runner.NewCheckpointMachine(ctx, opts)
		tr.end(sp)
		if err == nil {
			err = m.Close()
		}
		if err != nil {
			return resultLine{}, nil, err
		}
	}
	raw["runner.setup_ms"] = median(tr.durations("machine")) * 1e3

	cells := tr.durations("cell")
	raw["campaign.plan_s"] = sumOf(tr.durations("plan"))
	if _, cell := b.(*cellBench); !cell {
		raw["campaign.cell_ms_p50"] = quantile(cells, 0.50) * 1e3
		raw["campaign.cell_ms_p95"] = quantile(cells, 0.95) * 1e3
		raw["campaign.cell_ms_p99"] = quantile(cells, 0.99) * 1e3
		passes := sumOf(tr.durations("pass1")) + sumOf(tr.durations("pass2"))
		raw["campaign.worker_idle_frac"] = 1 - ratio(sumOf(cells), workers*passes)
	}
	raw["campaign.cache_get_ms"] = mean(tr.durations("cache.get")) * 1e3
	raw["campaign.cache_put_ms"] = mean(tr.durations("cache.put")) * 1e3
	raw["campaign.pass1_s"] = sumOf(tr.durations("pass1"))
	raw["campaign.pass2_s"] = sumOf(tr.durations("pass2"))
	raw["trace_overhead_frac"] = ratio(phT.seconds(out.wall.Seconds()), untraced) - 1
	raw["failed_frac"] = ratio(float64(chk.failed), float64(chk.attempted))

	m, err := emit(perLayer, raw)
	if err != nil {
		return resultLine{}, nil, err
	}
	rep.Digest, rep.DigestStatus, rep.Unpinned = out.digest, chk.status, chk.unpinned
	rep.Samples = map[string][]float64{
		"raw_untraced_wall_s": {plain.wall.Seconds(), plain2.wall.Seconds()},
		"raw_traced_wall_s":   {out.wall.Seconds()},
		"steal_s":             {ph1.steal, phT.steal, ph2.steal},
		"speed":               {ph1.speed, phT.speed, ph2.speed},
	}
	return chk.line(m), tr, nil
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sumOf(xs), float64(len(xs))) }
