// Command mlcampaign executes declarative simulation campaigns: a
// JSON spec names the axes to sweep (benchmarks, mechanisms,
// hierarchy variants, memory models, host cores, prefetch-queue
// overrides, parameter sets, trace-selection policies, warm-up and
// measured budgets, seeds) and the engine runs the cross-product on
// a worker pool with a persistent result cache, then prints speedup
// grids, rankings and per-cell confidence intervals per scenario.
//
// Usage:
//
//	mlcampaign run -spec sweep.json -cache .mlcache -workers 8
//	mlcampaign run -spec sweep.json -format csv -out results.csv
//	mlcampaign run -spec examples/campaign/figures/fig8.json -cache .mlcache
//	mlcampaign plan -spec sweep.json
//	mlcampaign validate examples/campaign/*.json examples/campaign/figures/*.json
//	mlcampaign list
//	mlcampaign list -cache .mlcache
//	mlcampaign prune -cache .mlcache -older-than 720h
//	mlcampaign prune -cache .mlcache -spec sweep.json -dry-run
//	mlcampaign prune -ckpt .mlckpt -spec sweep.json -dry-run
//	mlcampaign record -workload gzip -out gzip.mlt -insts 250000
//
// A campaign interrupted with ^C leaves every finished cell in the
// cache; rerunning the same spec with the same -cache directory
// resumes where it stopped (the scheduler counters report how many
// cells were served from the cache).
//
// Example spec (see examples/campaign/ for more):
//
//	{
//	  "name": "memory-models",
//	  "benchmarks": ["gzip", "mcf", "art", "twolf"],
//	  "mechanisms": ["Base", "SP", "GHB"],
//	  "memories": ["sdram", "const70"],
//	  "seeds": [42, 43]
//	}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"microlib"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "plan":
		cmdPlan(os.Args[2:])
	case "validate":
		cmdValidate(os.Args[2:])
	case "list":
		cmdList(os.Args[2:])
	case "paths":
		cmdPaths(os.Args[2:])
	case "prune":
		cmdPrune(os.Args[2:])
	case "record":
		cmdRecord(os.Args[2:])
	case "resume":
		cmdResume(os.Args[2:])
	case "status":
		cmdStatus(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mlcampaign: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  mlcampaign run   -spec file [-cache dir] [-workers n] [-format text|csv|json] [-out file] [-quiet] [-set path=value]...
                   [-ckpt dir] [-nowarm] [-journal file.jsonl] [-http addr] [-interval cycles -interval-dir dir]
                   [-cell-timeout dur] [-retry n] [-retry-delay dur] [-stall-factor f]
                   [-faults spec] [-fault-seed n] [-fault-slow dur]
  mlcampaign resume file.jsonl [-cache dir] [-workers n] [-format text|csv|json] [-out file] [-quiet]
                   [-ckpt dir] [-nowarm] [-cell-timeout dur] [-retry n] [-retry-delay dur] [-stall-factor f]
  mlcampaign plan  -spec file [-diff] [-set path=value]...
  mlcampaign validate [-quiet] [-set path=value]... file.json [file2.json ...]
  mlcampaign list  [-cache dir]
  mlcampaign paths
  mlcampaign prune [-cache dir] [-ckpt dir] [-older-than dur] [-spec file] [-dry-run]
  mlcampaign record -workload name -out file.mlt [-insts n] [-warmup n] [-seed n] [-skip n] [-selection simpoint|skip:N] [-spec file]
  mlcampaign status [-json] file.jsonl
`)
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var sets microlib.SetFlags
	fs.Var(&sets, "set", "pin a config field for every cell, e.g. -set cpu.ruu=64 (repeatable)")
	var (
		specPath = fs.String("spec", "", "campaign spec file (JSON)")
		cacheDir = fs.String("cache", "", "persistent result cache directory (enables resume)")
		workers  = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		format   = fs.String("format", "text", "report format: text, csv, json")
		out      = fs.String("out", "", "write the report to a file instead of stdout")
		quiet    = fs.Bool("quiet", false, "suppress progress output")

		journal     = fs.String("journal", "", "append a JSONL run journal here (inspect with mlcampaign status, continue with mlcampaign resume)")
		httpAddr    = fs.String("http", "", "serve live metrics and pprof on this address while the campaign runs, e.g. :6060")
		interval    = fs.Uint64("interval", 0, "sample every simulated cell at this cycle granularity (needs -interval-dir)")
		intervalDir = fs.String("interval-dir", "", "write each sampled cell's series to this directory as <fingerprint>.json")
		ckptDir     = fs.String("ckpt", "", "persist warm-up prefix checkpoints in this directory so later campaigns sharing a prefix start warm")
		noWarm      = fs.Bool("nowarm", false, "disable warm-state checkpointing; every cell simulates its own skip and warm-up prefix")

		rob    = robustnessFlags(fs)
		faults = faultFlags(fs)
	)
	fs.Parse(args)
	if *specPath == "" {
		fatal(fmt.Errorf("run: -spec is required"))
	}
	if *format != "text" && *format != "csv" && *format != "json" {
		fatal(fmt.Errorf("run: unknown format %q", *format))
	}

	spec, err := microlib.LoadCampaignSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	sets.Pin(&spec)

	if (*interval > 0) != (*intervalDir != "") {
		fatal(fmt.Errorf("run: -interval and -interval-dir go together"))
	}

	// ^C cancels the campaign; finished cells stay in the cache.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	live := &microlib.CampaignLiveStats{}
	cfg := microlib.CampaignConfig{
		Workers:       *workers,
		CacheDir:      *cacheDir,
		CheckpointDir: *ckptDir,
		NoWarm:        *noWarm,
		Live:          live,
		Interval:      *interval,
		IntervalDir:   *intervalDir,
	}
	rob.apply(&cfg)
	faults.apply(&cfg)
	if !*quiet {
		cfg.OnProgress = progressLine(live)
	}
	if *journal != "" {
		f, err := os.Create(*journal)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cfg.Journal = f
	}
	if *httpAddr != "" {
		m := microlib.NewMetrics()
		cfg.Metrics = m
		srv, err := microlib.ServeMetrics(*httpAddr, m)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "mlcampaign: live metrics on http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr())
	}

	sum, err := microlib.RunCampaign(ctx, spec, cfg)
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	finishCampaign(sum, err, *format, *out, *journal)
}

// finishCampaign prints the campaign outcome (interruption notice or
// per-kind failure summary), emits the report, and exits nonzero for
// interrupted (130) or partly-failed (1) campaigns.
func finishCampaign(sum *microlib.CampaignSummary, err error, format, out, journal string) {
	if err != nil && sum == nil {
		fatal(err)
	}
	exit := 0
	if err != nil {
		resumeHint := "rerun with the same -cache to resume"
		if journal != "" {
			resumeHint = fmt.Sprintf("mlcampaign resume %s", journal)
		}
		fmt.Fprintf(os.Stderr, "mlcampaign: interrupted (%v); %d/%d cells done — %s\n",
			err, sum.Sched.Completed, sum.Sched.Total, resumeHint)
		exit = 130 // interrupted: partial report below, nonzero for scripts
	} else if sum.Sched.Errors > 0 {
		fmt.Fprintf(os.Stderr, "mlcampaign: %d cells failed (%s; see report)\n",
			sum.Sched.Errors, kindSummary(sum.Sched.FailedKinds))
		exit = 1
	}
	if sum.Sched.Degraded > 0 {
		fmt.Fprintf(os.Stderr, "mlcampaign: %d degraded operations (cache/checkpoint/journal trouble survived; see journal)\n", sum.Sched.Degraded)
	}

	var report []byte
	switch format {
	case "text":
		report = []byte(sum.Text())
	case "csv":
		report = []byte(sum.CSV())
	case "json":
		report, err = sum.JSON()
		if err != nil {
			fatal(err)
		}
		report = append(report, '\n')
	}
	if out != "" {
		if err := os.WriteFile(out, report, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mlcampaign: report written to %s\n", out)
	} else {
		os.Stdout.Write(report)
	}
	if exit != 0 {
		os.Exit(exit)
	}
}

// progressLine returns the interactive one-line progress callback:
// cell counter, result source, throughput, ETA.
func progressLine(live *microlib.CampaignLiveStats) func(microlib.CampaignProgress) {
	return func(p microlib.CampaignProgress) {
		src := "sim"
		if p.FromCache {
			src = "hit"
		}
		if p.Err != nil {
			src = "ERR"
		}
		// The live snapshot turns the counter into a forecast:
		// overall throughput and the extrapolated time to finish.
		s := live.Snapshot()
		eta := ""
		if s.ETA > 0 {
			eta = fmt.Sprintf(" eta %s", s.ETA.Round(time.Second))
		}
		fmt.Fprintf(os.Stderr, "\r[%d/%d] %s %s/%s seed=%d  %.1f cells/s%s        ",
			p.Done, p.Total, src, p.Cell.Bench(), p.Cell.Mech(), p.Cell.Seed(), s.CellsPerSec, eta)
	}
}

// kindSummary renders a per-error-kind count map as "2 panic, 1
// timeout".
func kindSummary(kinds map[string]int) string {
	if len(kinds) == 0 {
		return "unclassified"
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%d %s", kinds[k], k)
	}
	return strings.Join(parts, ", ")
}

// robustness is the fault-tolerance flag bundle shared by run and
// resume.
type robustness struct {
	cellTimeout *time.Duration
	retry       *int
	retryDelay  *time.Duration
	stallFactor *float64
}

func robustnessFlags(fs *flag.FlagSet) robustness {
	return robustness{
		cellTimeout: fs.Duration("cell-timeout", 0, "cancel any cell exceeding this wall time and record it as a timeout failure (0: spec's cell_timeout, then unlimited)"),
		retry:       fs.Int("retry", 1, "retries per transient cell failure (timeouts); deterministic failures never retry (0 disables)"),
		retryDelay:  fs.Duration("retry-delay", 200*time.Millisecond, "backoff before the first retry, doubling (capped) for later ones"),
		stallFactor: fs.Float64("stall-factor", 8, "warn when no cell finishes within this x the median cell wall time (0 disables the stall watchdog)"),
	}
}

func (r robustness) apply(cfg *microlib.CampaignConfig) {
	cfg.CellTimeout = *r.cellTimeout
	cfg.Retry = &microlib.CampaignRetryPolicy{Max: *r.retry, BaseDelay: *r.retryDelay}
	cfg.StallFactor = *r.stallFactor
	cfg.OnStall = func(rep microlib.CampaignStallReport) {
		fmt.Fprintf(os.Stderr, "\nmlcampaign: WARNING: no cell has finished for %s (threshold %s, %d/%d done) — campaign may be stalled\n",
			rep.Idle.Round(time.Second), rep.Threshold.Round(time.Second), rep.Done, rep.Total)
	}
}

// faultFlagVals is the fault-injection flag bundle (run only).
type faultFlagVals struct {
	spec *string
	seed *uint64
	slow *time.Duration
}

func faultFlags(fs *flag.FlagSet) faultFlagVals {
	return faultFlagVals{
		spec: fs.String("faults", "", "inject deterministic faults, e.g. cell.panic=0.2,cache.put.error=1@3 (chaos testing; see README failure semantics)"),
		seed: fs.Uint64("fault-seed", 1, "seed of the -faults schedule (same seed, same faults)"),
		slow: fs.Duration("fault-slow", 2*time.Second, "how long an injected cell.slow fault stalls its cell"),
	}
}

func (f faultFlagVals) apply(cfg *microlib.CampaignConfig) {
	if *f.spec == "" {
		return
	}
	inj, err := microlib.ParseFaultSpec(*f.spec, *f.seed)
	if err != nil {
		fatal(err)
	}
	inj.SlowFor = *f.slow
	cfg.Faults = inj
	fmt.Fprintf(os.Stderr, "mlcampaign: fault injection armed: %s (seed %d)\n", *f.spec, *f.seed)
}

// cmdResume continues a crashed or interrupted campaign from its
// journal: completed cells come from the cache, deterministic
// failures replay from the journal, only the remainder simulates.
func cmdResume(args []string) {
	fs := flag.NewFlagSet("resume", flag.ExitOnError)
	var (
		cacheDir = fs.String("cache", "", "result cache directory (default: the original run's)")
		workers  = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		format   = fs.String("format", "text", "report format: text, csv, json")
		out      = fs.String("out", "", "write the report to a file instead of stdout")
		quiet    = fs.Bool("quiet", false, "suppress progress output")
		ckptDir  = fs.String("ckpt", "", "persist warm-up prefix checkpoints in this directory so later campaigns sharing a prefix start warm")
		noWarm   = fs.Bool("nowarm", false, "disable warm-state checkpointing; every cell simulates its own skip and warm-up prefix")
		rob      = robustnessFlags(fs)
		faults   = faultFlags(fs)
	)
	// Accept both `resume file.jsonl -flags` and `resume -flags file.jsonl`.
	var journalPath string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		journalPath, args = args[0], args[1:]
	}
	fs.Parse(args)
	if journalPath == "" {
		if fs.NArg() != 1 {
			fatal(fmt.Errorf("resume: exactly one journal file expected"))
		}
		journalPath = fs.Arg(0)
	} else if fs.NArg() != 0 {
		fatal(fmt.Errorf("resume: exactly one journal file expected"))
	}
	if *format != "text" && *format != "csv" && *format != "json" {
		fatal(fmt.Errorf("resume: unknown format %q", *format))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	live := &microlib.CampaignLiveStats{}
	cfg := microlib.CampaignConfig{Workers: *workers, CacheDir: *cacheDir, CheckpointDir: *ckptDir, NoWarm: *noWarm, Live: live}
	rob.apply(&cfg)
	faults.apply(&cfg)
	if !*quiet {
		cfg.OnProgress = progressLine(live)
	}

	sum, info, err := microlib.ResumeCampaign(ctx, journalPath, cfg)
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if sum == nil && err != nil {
		fatal(err)
	}
	note := ""
	if info.Torn {
		note = " (journal tail was torn mid-write; intact prefix used)"
	}
	fmt.Fprintf(os.Stderr, "mlcampaign: resumed%s: %d cells recovered (%d recorded failures), %d remained\n",
		note, info.Recovered, info.KnownFailures, info.Remaining)
	finishCampaign(sum, err, *format, *out, journalPath)
}

func cmdPlan(args []string) {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	var sets microlib.SetFlags
	fs.Var(&sets, "set", "pin a config field for every cell (repeatable)")
	specPath := fs.String("spec", "", "campaign spec file (JSON)")
	diff := fs.Bool("diff", false, "print each cell as its deviation from the plan's base point, with its warm-up prefix group")
	fs.Parse(args)
	if *specPath == "" {
		fatal(fmt.Errorf("plan: -spec is required"))
	}
	spec, err := microlib.LoadCampaignSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	sets.Pin(&spec)
	plan, err := microlib.NewCampaignPlan(spec)
	if err != nil {
		fatal(err)
	}
	if *diff {
		printPlanDiff(plan)
		return
	}
	printPlan(plan)
}

// printPlanDiff renders the plan as deviations from its base point:
// the first value of every axis is the default, and each cell lists
// only the axis values it changes. The prefix column names the cell's
// warm-up prefix group (cells differing only in measured budget share
// a group and pay for one prefix simulation between them), so the
// sharing structure warm-state checkpointing exploits is visible
// before any cell runs.
func printPlanDiff(plan *microlib.CampaignPlan) {
	fmt.Printf("campaign %q: %d cells, fingerprint %s\n", plan.Spec.Name, len(plan.Cells), plan.Fingerprint())
	base := make(map[string]string, len(plan.Axes))
	baseParts := make([]string, 0, len(plan.Axes))
	for _, ax := range plan.Axes {
		if len(ax.Values) == 0 {
			continue
		}
		base[ax.Name] = ax.Values[0]
		baseParts = append(baseParts, ax.Name+"="+ax.Values[0])
	}
	fmt.Printf("base: %s\n", strings.Join(baseParts, " "))

	type row struct {
		idx    int
		prefix string
		diff   string
		key    string
	}
	groups := make(map[string]string)
	rows := make([]row, 0, len(plan.Cells))
	diffW, prefW := len("diff"), len("prefix")
	for _, c := range plan.Cells {
		var devs []string
		for _, v := range c.Values {
			if v.Value != base[v.Axis] {
				devs = append(devs, v.Axis+"="+v.Value)
			}
		}
		d := "(base)"
		if len(devs) > 0 {
			d = strings.Join(devs, " ")
		}
		pfp := c.Opts.PrefixFingerprint()
		label, ok := groups[pfp]
		if !ok {
			label = fmt.Sprintf("p%d %s", len(groups), pfp[:8])
			groups[pfp] = label
		}
		if len(d) > diffW {
			diffW = len(d)
		}
		if len(label) > prefW {
			prefW = len(label)
		}
		rows = append(rows, row{c.Index, label, d, c.Key})
	}
	fmt.Printf("%d warm-up prefix groups over %d cells\n", len(groups), len(plan.Cells))
	fmt.Printf("%-5s %-*s %-*s  key\n", "idx", prefW, "prefix", diffW, "diff")
	for _, r := range rows {
		fmt.Printf("%-5d %-*s %-*s  %s\n", r.idx, prefW, r.prefix, diffW, r.diff, r.key)
	}
}

// printPlan renders a plan: the axis table, the scenarios, and one
// row per cell with a column for every axis.
func printPlan(plan *microlib.CampaignPlan) {
	fmt.Printf("campaign %q: %d cells, fingerprint %s\n", plan.Spec.Name, len(plan.Cells), plan.Fingerprint())
	for _, ax := range plan.Axes {
		kind := "scenario axis"
		if !ax.Scenario {
			kind = "axis"
		}
		fmt.Printf("%-13s %-7s %s\n", kind, ax.Name, strings.Join(ax.Values, " "))
	}
	for _, sc := range plan.Scenarios() {
		fmt.Printf("scenario %s\n", sc)
	}

	// Column widths follow the widest value of each axis.
	widths := make([]int, len(plan.Axes))
	for i, ax := range plan.Axes {
		widths[i] = len(ax.Name)
		for _, v := range ax.Values {
			if len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	fmt.Printf("%-5s", "idx")
	for i, ax := range plan.Axes {
		fmt.Printf(" %-*s", widths[i], ax.Name)
	}
	fmt.Println("  key")
	for _, c := range plan.Cells {
		fmt.Printf("%-5d", c.Index)
		for i, v := range c.Values {
			fmt.Printf(" %-*s", widths[i], v.Value)
		}
		fmt.Printf("  %s\n", c.Key)
	}
}

// cmdValidate parses, normalizes and plans every given spec file
// without executing any cell — the CI gate that keeps shipped specs
// from rotting. SimPoint selections are resolved (that is plan-time
// analysis, not simulation), so a spec that cannot expand fails here.
func cmdValidate(args []string) {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	var sets microlib.SetFlags
	fs.Var(&sets, "set", "pin a config field for every cell (repeatable)")
	quiet := fs.Bool("quiet", false, "print failures only")
	fs.Parse(args)
	files := fs.Args()
	if len(files) == 0 {
		fatal(fmt.Errorf("validate: no spec files given"))
	}
	bad := 0
	for _, f := range files {
		spec, err := microlib.LoadCampaignSpec(f)
		if err == nil {
			sets.Pin(&spec)
		}
		var plan *microlib.CampaignPlan
		if err == nil {
			plan, err = microlib.NewCampaignPlan(spec)
		}
		if err != nil {
			bad++
			fmt.Printf("FAIL %s: %v\n", f, err)
			continue
		}
		if !*quiet {
			fmt.Printf("ok   %s: campaign %q, %d cells, %d scenarios, plan %s\n",
				f, plan.Spec.Name, len(plan.Cells), len(plan.Scenarios()), plan.Fingerprint())
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "mlcampaign: %d of %d specs failed validation\n", bad, len(files))
		os.Exit(1)
	}
}

func cmdList(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	cacheDir := fs.String("cache", "", "list this cache directory instead of the axis values")
	fs.Parse(args)

	if *cacheDir == "" {
		fmt.Println("benchmarks: ", strings.Join(microlib.Benchmarks(), " "))
		fmt.Println("mechanisms: ", microlib.BaseMechanism, strings.Join(microlib.Mechanisms(), " "))
		fmt.Println("hiers:      ", strings.Join(microlib.CampaignHiers(), " "))
		fmt.Println("memories:   ", strings.Join(microlib.CampaignMemories(), " "))
		fmt.Println("cores:      ", strings.Join(microlib.CampaignCores(), " "))
		fmt.Println("selections: ", strings.Join(microlib.CampaignSelections(), " "), "(or skip:N)")
		return
	}
	// Inspect only: a mistyped path must fail, not be created.
	if info, err := os.Stat(*cacheDir); err != nil || !info.IsDir() {
		fatal(fmt.Errorf("list: %s is not a cache directory", *cacheDir))
	}
	cache, err := microlib.OpenCampaignCache(*cacheDir)
	if err != nil {
		fatal(err)
	}
	keys, err := cache.Keys()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d cached cells in %s\n", len(keys), *cacheDir)
	for _, k := range keys {
		if res, ok := cache.Get(k); ok {
			fmt.Printf("%s  %-10s %-8s seed=%-4d IPC=%.4f\n", k, res.Bench, res.Mechanism, res.Seed, res.IPC)
		} else {
			fmt.Printf("%s  (corrupt entry; will be resimulated)\n", k)
		}
	}
}

// cmdPaths prints the config-field registry: every dotted path a
// "fields" axis, a "set" section or a -set flag can address, with its
// type, Table 1 default and description. This is the generated
// namespace table the README refers to.
func cmdPaths(args []string) {
	fs := flag.NewFlagSet("paths", flag.ExitOnError)
	fs.Parse(args)
	defaults := microlib.NewOptions("", microlib.BaseMechanism)
	fmt.Printf("%-28s %-5s %-13s %s\n", "path", "kind", "default", "description")
	for _, f := range microlib.ConfigFields() {
		def, err := microlib.GetOptionField(&defaults, f.Path)
		if err != nil {
			fatal(err)
		}
		doc := f.Doc
		if len(f.Enum) > 0 {
			doc += " (one of: " + strings.Join(f.Enum, ", ") + ")"
		}
		fmt.Printf("%-28s %-5s %-13s %s\n", f.Path, f.Kind, def, doc)
	}
}

// cmdPrune garbage-collects a result cache (-cache) and/or a
// checkpoint store (-ckpt): entries older than -older-than, or — when
// -spec is given — entries that spec's plan cannot reach (its cell
// fingerprints, or its warm-up prefix fingerprints), are deleted.
func cmdPrune(args []string) {
	fs := flag.NewFlagSet("prune", flag.ExitOnError)
	var (
		cacheDir  = fs.String("cache", "", "result cache directory to prune")
		ckptDir   = fs.String("ckpt", "", "checkpoint directory to prune")
		olderThan = fs.Duration("older-than", 0, "delete entries older than this (e.g. 720h)")
		specPath  = fs.String("spec", "", "keep only entries reachable from this spec's plan")
		dryRun    = fs.Bool("dry-run", false, "report what would be deleted without deleting")
	)
	fs.Parse(args)
	if *cacheDir == "" && *ckptDir == "" {
		fatal(fmt.Errorf("prune: -cache or -ckpt is required"))
	}
	if *olderThan == 0 && *specPath == "" {
		fatal(fmt.Errorf("prune: need -older-than and/or -spec to select entries"))
	}
	opts := microlib.CampaignPruneOptions{OlderThan: *olderThan, DryRun: *dryRun}
	if *specPath != "" {
		spec, err := microlib.LoadCampaignSpec(*specPath)
		if err != nil {
			fatal(err)
		}
		plan, err := microlib.NewCampaignPlan(spec)
		if err != nil {
			fatal(err)
		}
		opts.Keep = plan
	}
	verb := "removed"
	if *dryRun {
		verb = "would remove"
	}
	for _, t := range []struct {
		dir, what string
		open      func(string) (microlib.CampaignStore, error)
	}{
		{*cacheDir, "cells", func(d string) (microlib.CampaignStore, error) { return microlib.OpenCampaignCache(d) }},
		{*ckptDir, "checkpoints", func(d string) (microlib.CampaignStore, error) { return microlib.OpenCampaignCheckpointStore(d) }},
	} {
		if t.dir == "" {
			continue
		}
		// Inspect only: a mistyped path must fail, not be created.
		if info, err := os.Stat(t.dir); err != nil || !info.IsDir() {
			fatal(fmt.Errorf("prune: %s is not a directory", t.dir))
		}
		store, err := t.open(t.dir)
		if err != nil {
			fatal(err)
		}
		res, err := microlib.PruneCampaignCache(store, opts)
		if err != nil {
			fatal(err)
		}
		for _, e := range res.Removed {
			fmt.Printf("%s %s (%s, %d bytes)\n", verb, e.Key, e.ModTime.Format("2006-01-02 15:04:05"), e.Size)
		}
		fmt.Printf("mlcampaign: %s %d %s (%d bytes), kept %d\n", verb, len(res.Removed), t.what, res.Bytes, res.Kept)
	}
}

// cmdRecord captures a workload — a built-in benchmark, or any
// custom workload of a spec — to a binary trace file, which another
// spec can then replay through a "trace" workload entry. A window
// (-skip, or -selection simpoint/skip:N) records a chosen execution
// region instead of the stream prefix; replaying it is bit-identical
// to a live run skipped to the same offset.
func cmdRecord(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		name     = fs.String("workload", "", "workload to record: a built-in benchmark or, with -spec, a spec-defined workload")
		out      = fs.String("out", "", "trace file to write")
		insts    = fs.Uint64("insts", 250_000, "measured instruction budget of the runs the trace will feed")
		warmup   = fs.Uint64("warmup", 0, "their warm-up budget: widens the recording to warmup+insts and the simpoint analysis to match a campaign cell")
		seed     = fs.Uint64("seed", 42, "generator seed (ignored for trace-backed workloads)")
		skip     = fs.Uint64("skip", 0, "instructions to discard before the recorded window")
		sel      = fs.String("selection", "", "resolve the window offset by policy: simpoint, skip:N")
		specPath = fs.String("spec", "", "campaign spec defining custom workloads (optional)")
	)
	fs.Parse(args)
	if *name == "" || *out == "" {
		fatal(fmt.Errorf("record: -workload and -out are required"))
	}

	var spec microlib.CampaignSpec
	if *specPath != "" {
		s, err := microlib.LoadCampaignSpec(*specPath)
		if err != nil {
			fatal(err)
		}
		spec = s
	}

	// Record into a temp file and rename on success: -out may name an
	// existing trace — including the very trace being re-recorded
	// from — and neither a failed run nor the recording itself may
	// clobber it before the new content is complete.
	tmp := *out + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		fatal(err)
	}
	ropts := microlib.TraceRecordOptions{Seed: *seed, Insts: *insts, Warmup: *warmup, Skip: *skip, Selection: *sel}
	n, rerr := microlib.RecordTraceWindow(spec, *name, ropts, f)
	if cerr := f.Close(); rerr == nil {
		rerr = cerr
	}
	if rerr == nil {
		rerr = os.Rename(tmp, *out)
	}
	if rerr != nil {
		os.Remove(tmp)
		fatal(rerr)
	}
	fmt.Printf("recorded %d instructions of %s to %s\n", n, *name, *out)
}

// cmdStatus digests a run journal written by `run -journal`: overall
// state (completed, aborted, or cut off mid-run), cache hit rate,
// throughput, the slowest cells and any failures.
func cmdStatus(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the digest as JSON (for CI gates asserting on failure kinds)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("status: exactly one journal file expected"))
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	evs, err := microlib.ReadCampaignJournal(f)
	var torn *microlib.TornTailError
	if errors.As(err, &torn) {
		// A torn final line is crash debris, not corruption; status
		// exists to diagnose exactly such journals.
		err = nil
	}
	if err != nil {
		fatal(err)
	}
	st, err := microlib.SummarizeCampaignJournal(evs)
	if err != nil {
		fatal(err)
	}
	st.Torn = torn != nil
	if *asJSON {
		data, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(append(data, '\n'))
	} else {
		os.Stdout.WriteString(st.Text())
	}
	if !st.Complete || st.Aborted || st.Errors > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mlcampaign:", err)
	os.Exit(1)
}
