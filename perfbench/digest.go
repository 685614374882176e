package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"strconv"
	"time"

	"microlib/internal/bus"
	"microlib/internal/campaign"
	"microlib/internal/runner"
)

// digest fingerprints one iteration's simulated results. Sim covers
// what runner.Run and the campaign scheduler return: per cell the
// cycles, instructions, cache, memory and refusal counters (and for
// campaigns the scheduler's counts). Bus covers the two buses'
// counters, which only the traced assembly can read; it is empty on
// untraced runs and on campaigns.
type digest struct {
	Sim string `json:"sim"`
	Bus string `json:"bus,omitempty"`
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:24] }

// resultDigest hashes a single simulation's result.
func resultDigest(r runner.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "cpu %+v\nipc %x\nl1d %+v\nl1i %+v\nl2 %+v\nmem %+v\nbase %d\nhw %+v\n",
		r.CPU, math.Float64bits(r.IPC), r.L1D, r.L1I, r.L2, r.Mem, r.BaseCacheAccesses, r.Hardware)
	return sum(h)
}

// busDigest hashes the buses' cumulative counters at the end of a run.
func busDigest(buses ...*bus.Bus) string {
	h := sha256.New()
	for _, b := range buses {
		t, busy, wait := b.Stats()
		fmt.Fprintf(h, "%s %d %d %d\n", b.Name(), t, busy, wait)
	}
	return sum(h)
}

// unpinned names mechanisms whose results do not repeat at the commit
// that defined the benchmark: TK and TKVC iterate Go maps, whose order
// is random, when they evict from the correlation table and when the
// decay scan issues prefetches (internal/mech/tk/tk.go), so their
// cells' cycles and counters vary from run to run. Their cells are
// digested by committed instruction count only, and every run reports
// how many it left out, until TK iterates deterministically and the
// digests are recorded again.
var unpinned = map[string]bool{"TK": true, "TKVC": true}

// campaignAcc accumulates the passes of one campaign iteration: the
// digest over every plan cell's result in plan order plus the
// scheduler's counts, and the totals the metrics need.
type campaignAcc struct {
	h       hash.Hash
	cells   int
	errs    int
	insts   uint64
	results []campaign.CellResult
	stats   []campaign.SchedulerStats
	// unpinned counts cells whose results the digest leaves out.
	unpinned int
	// progress records every finished cell, in completion order.
	finished []campaign.Progress
}

// progress is the scheduler's OnProgress hook; the scheduler calls it
// serially under its lock.
func (a *campaignAcc) progress(p campaign.Progress) {
	a.insts += p.Insts
	a.finished = append(a.finished, p)
}

// add folds one pass: results keyed by cell fingerprint and the
// pass's scheduler counts.
func (a *campaignAcc) add(plan *campaign.Plan, results map[string]campaign.CellResult, st campaign.SchedulerStats) error {
	if a.h == nil {
		a.h = sha256.New()
	}
	for _, c := range plan.Cells {
		a.cells++
		r, ok := results[c.Key]
		if !ok || r.Err != "" {
			a.errs++
			fmt.Fprintf(os.Stderr, "perfbench: cell %s/%s failed: %s\n", c.Bench(), c.Mech(), r.Err)
			fmt.Fprintf(a.h, "cell %d failed\n", c.Index)
			continue
		}
		a.results = append(a.results, r)
		if unpinned[r.Mechanism] {
			a.unpinned++
			fmt.Fprintf(a.h, "cell %d %s/%s insts=%d unpinned\n", c.Index, r.Bench, r.Mechanism, r.Insts)
			continue
		}
		// The key is the options' fingerprint, an identity rather
		// than a simulated number; plan order identifies the cell.
		r.Key = ""
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		fmt.Fprintf(a.h, "cell %d %s\n", c.Index, data)
	}
	fmt.Fprintf(a.h, "sched total=%d completed=%d hits=%d simulated=%d errors=%d retries=%d degraded=%d prefix=%d ckhit=%d ckmiss=%d\n",
		st.Total, st.Completed, st.CacheHits, st.Simulated, st.Errors, st.Retries, st.Degraded,
		st.PrefixRuns, st.CheckpointHits, st.CheckpointMisses)
	a.stats = append(a.stats, st)
	return nil
}

// outcome closes the iteration. Instructions committed by prefix runs
// (prefixInsts each) count as simulated: the scheduler's per-cell
// counts leave them out.
func (a *campaignAcc) outcome(seed uint64, wall time.Duration, prefixInsts uint64) outcome {
	out := outcome{seed: seed, wall: wall, cells: a.cells, errs: a.errs, insts: a.insts, unpinned: a.unpinned}
	for _, st := range a.stats {
		out.insts += uint64(st.PrefixRuns) * prefixInsts
	}
	if a.h != nil {
		out.digest.Sim = sum(a.h)
	}
	return out
}

// recordedDigests maps workload → seed → digest, recorded from the
// commit that defined the benchmark by `perfbench record`. Smoke-size
// digests are stored under "<workload>/smoke".
type recordedDigests map[string]map[string]digest

//go:embed digests.json
var digestsJSON []byte

func loadDigests() (recordedDigests, error) {
	d := recordedDigests{}
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

func digestKey(workload string, smoke bool) string {
	if smoke {
		return workload + "/smoke"
	}
	return workload
}

// check compares an iteration's digest with the recorded one. found is
// false when no digest was recorded for this seed; then only the
// run's own consistency checks apply.
func (d recordedDigests) check(key string, seed uint64, got digest) (found, ok bool) {
	want, found := d[key][strconv.FormatUint(seed, 10)]
	if !found {
		return false, true
	}
	ok = got.Sim == want.Sim && (got.Bus == "" || got.Bus == want.Bus)
	return true, ok
}

// write stores the table at path with sorted keys, one seed a line.
func (d recordedDigests) write(path string) error {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := []byte("{\n")
	for i, k := range keys {
		seeds := make([]uint64, 0, len(d[k]))
		for s := range d[k] {
			n, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return fmt.Errorf("digests: seed %q: %w", s, err)
			}
			seeds = append(seeds, n)
		}
		sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })
		out = fmt.Appendf(out, "  %q: {\n", k)
		for j, s := range seeds {
			v, err := json.Marshal(d[k][strconv.FormatUint(s, 10)])
			if err != nil {
				return err
			}
			out = fmt.Appendf(out, "    \"%d\": %s", s, v)
			if j < len(seeds)-1 {
				out = append(out, ',')
			}
			out = append(out, '\n')
		}
		out = append(out, "  }"...)
		if i < len(keys)-1 {
			out = append(out, ',')
		}
		out = append(out, '\n')
	}
	out = append(out, "}\n"...)
	return os.WriteFile(path, out, 0o644)
}

func unpinnedNames() []string {
	var out []string
	for m := range unpinned {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}
