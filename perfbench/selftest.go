package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// recordMain recomputes digests for a workload's seeds and writes them
// into perfbench/digests.json. It is how the recorded digests were
// made; rerun it only for a change meant to alter simulated results.
func recordMain(args []string) int {
	fs := flag.NewFlagSet("perfbench record", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to record")
	seedList := fs.String("seeds", "", "seeds to record: comma-separated values or ranges, e.g. 0-31,42")
	smoke := fs.Bool("smoke", false, "record the smoke-size variant")
	out := fs.String("out", "perfbench/digests.json", "digest file to update")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, err := findWorkload(*name)
	if err == nil && *seedList == "" {
		err = fmt.Errorf("--seeds is required")
	}
	var seeds []uint64
	if err == nil {
		seeds, err = parseSeeds(*seedList)
	}
	digests := recordedDigests{}
	if err == nil {
		digests, err = loadDigests()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench record:", err)
		return 2
	}
	key := digestKey(def.name, *smoke)
	if digests[key] == nil {
		digests[key] = map[string]digest{}
	}
	for _, seed := range seeds {
		b := def.build(seed, *smoke)
		n := iterSeeds
		if _, ok := b.(*cellBench); !ok {
			n = 1 // a campaign repeats the same inputs every iteration
		}
		for i := 0; i < n; i++ {
			out, err := recordIter(b, i)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench record: %s seed %d iteration %d: %v\n", key, seed, i, err)
				return 1
			}
			digests[key][strconv.FormatUint(out.seed, 10)] = out.digest
			fmt.Fprintf(os.Stderr, "%s seed %d: %+v\n", key, out.seed, out.digest)
		}
	}
	if err := digests.write(*out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench record:", err)
		return 1
	}
	return 0
}

// recordIter runs one iteration untraced; iteration 0 of a single cell
// also runs traced, which must agree and adds the bus digest.
func recordIter(b bench, iter int) (outcome, error) {
	if err := b.setup(); err != nil {
		return outcome{}, err
	}
	out, err := b.run(context.Background(), iter)
	if err == nil && out.errs > 0 {
		err = fmt.Errorf("%d cells failed", out.errs)
	}
	if _, cell := b.(*cellBench); err != nil || !cell || iter > 0 {
		return out, err
	}
	tout, err := b.traced(context.Background(), newTracer())
	if err == nil && (tout.errs > 0 || tout.digest.Sim != out.digest.Sim) {
		err = fmt.Errorf("traced run differs from runner.Run: %+v vs %+v", tout.digest, out.digest)
	}
	return tout, err
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseUint(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed %q: %w", part, err)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseUint(hi, 10, 64); err != nil || b < a {
				return nil, fmt.Errorf("seed range %q", part)
			}
		}
		for x := a; x <= b; x++ {
			out = append(out, x)
		}
	}
	return out, nil
}

// smokeMain runs every workload (or the named one) at smoke size and
// checks the benchmark itself:
//   - every metric BENCHMARK.json names is emitted, with its unit;
//   - the default seed's digest matches the recorded one, and the
//     check rejects it against the held-out seed's recorded digest
//     (a perturbed result cannot pass);
//   - the traced run reproduces the untraced digest;
//   - the layers' self_frac values cover at least 90% of the profile.
func smokeMain(args []string) int {
	fs := flag.NewFlagSet("perfbench smoke", flag.ContinueOnError)
	name := fs.String("workload", "", "only this workload (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	var digests recordedDigests
	if err == nil {
		digests, err = loadDigests()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench smoke:", err)
		return 1
	}
	failed := false
	for _, def := range workloads {
		if *name != "" && def.name != *name {
			continue
		}
		problems := smokeWorkload(def, spec, digests)
		for _, p := range problems {
			fmt.Printf("FAIL %s: %s\n", def.name, p)
		}
		if len(problems) == 0 {
			fmt.Printf("ok   %s\n", def.name)
		}
		failed = failed || len(problems) > 0
	}
	if failed {
		return 1
	}
	return 0
}

func smokeWorkload(def workloadDef, spec benchSpec, digests recordedDigests) []string {
	var problems []string
	fail := func(format string, a ...any) { problems = append(problems, fmt.Sprintf(format, a...)) }
	key := digestKey(def.name, true)

	chk := newChecker(key, digests)
	timed, err := timedRun(def.build(def.defaultSeed, true), chk, &reportBody{}, 0)
	if err != nil {
		return []string{err.Error()}
	}
	checkEmitted(fail, "end_to_end", spec.EndToEnd, endToEnd, timed.Metrics)
	if chk.status != "match" {
		fail("default seed %d: digest status %q, want match", def.defaultSeed, chk.status)
	}
	if found, ok := digests.check(key, def.heldOutSeed, chk.last); !found || ok {
		fail("digest of seed %d passed (or had nothing to fail against) as held-out seed %d", def.defaultSeed, def.heldOutSeed)
	}

	traced, _, err := traceRun(def.build(def.defaultSeed, true), chk, &reportBody{})
	if err != nil {
		return append(problems, err.Error())
	}
	checkEmitted(fail, "per_layer", spec.PerLayer, perLayer, traced.Metrics)
	if !traced.Correct {
		fail("traced run: %d of %d cells failed", traced.Failed, traced.Attempted)
	}
	if c := traced.Metrics["profile.covered_frac"].Value; c < 0.9 {
		fail("layers cover %.3f of profile samples, want >= 0.9", c)
	}
	return problems
}

// checkEmitted checks one section of BENCHMARK.json against a run:
// every metric it names was emitted with its unit, and the benchmark's
// own table lists the same metrics with the same directions.
func checkEmitted(fail func(string, ...any), section string, want, defs []metricDef, got map[string]metricValue) {
	if len(want) != len(defs) || len(got) != len(defs) {
		fail("%s: BENCHMARK.json names %d metrics, the benchmark defines %d and emitted %d", section, len(want), len(defs), len(got))
	}
	for _, d := range want {
		v, ok := got[d.Name]
		switch {
		case !ok:
			fail("%s metric %s not emitted", section, d.Name)
		case v.Unit != d.Unit:
			fail("%s metric %s has unit %q, BENCHMARK.json says %q", section, d.Name, v.Unit, d.Unit)
		case !slices.Contains(defs, d):
			fail("%s metric %s: BENCHMARK.json says %q is better, the benchmark disagrees", section, d.Name, d.Better)
		}
	}
}

// benchSpec is the part of BENCHMARK.json the self-test reads.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
