package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"microlib/examples/campaign/figures"
	"microlib/internal/campaign"
	"microlib/internal/hier"
	"microlib/internal/runner"
	"microlib/internal/workload"
)

// workers is the campaign worker-pool size: the two CPUs of the host
// the benchmark was sized on. Every campaign workload uses it, so the
// load comes from one process with at most two simulating goroutines.
const workers = 2

// bench is one benchmark workload.
type bench interface {
	// setup does the work a user pays before the first simulated
	// instruction; the benchmark times it for setup_s. It may be
	// called repeatedly; run uses the state of the last call.
	setup() error
	// run executes measured iteration iter with no tracing.
	run(ctx context.Context, iter int) (outcome, error)
	// traced executes iteration 0 under the tracer: spans around the
	// public calls into each layer, counters from their Stats. Its
	// digest must equal run's.
	traced(ctx context.Context, tr *tracer) (outcome, error)
	// machines lists the options of the machines the workload builds,
	// for the traced run to time their construction by
	// runner.NewCheckpointMachine.
	machines() ([]runner.Options, error)
}

// outcome is what one iteration produced.
type outcome struct {
	seed   uint64        // the workload seed the iteration simulated
	wall   time.Duration // host time of the measured phase
	cells  int           // cells attempted
	errs   int           // cells that failed to simulate
	insts  uint64        // instructions committed by a host core
	digest digest
	// unpinned counts cells left out of the digest (see unpinned).
	unpinned int
	// counters are simulated and host counters the traced iteration
	// read from the layers' public Stats, keyed by metric name.
	counters map[string]float64
}

// workloadDef is one named workload: its seeds and how to build it at
// full or smoke size. BENCHMARK.json and README.md record why each
// exists.
type workloadDef struct {
	name string
	// defaultSeed is used when --seed is absent; heldOutSeed is a
	// second seed kept out of tuning, so a later claim can be
	// re-checked on inputs its author did not tune on.
	defaultSeed uint64
	heldOutSeed uint64
	build       func(seed uint64, smoke bool) bench
}

var workloads = []workloadDef{
	{
		name:        "cell-mem",
		defaultSeed: 42,
		heldOutSeed: 4242,
		build: func(seed uint64, smoke bool) bench {
			opts := runner.DefaultOptions("swim", "GHB")
			opts.Seed = seed
			opts.Insts, opts.Warmup = 6_000_000, 500_000
			if smoke {
				opts.Insts, opts.Warmup = 200_000, 20_000
			}
			return &cellBench{opts: opts}
		},
	},
	{
		name:        "cell-stall",
		defaultSeed: 1,
		heldOutSeed: 1001,
		build: func(seed uint64, smoke bool) bench {
			opts := runner.Options{
				Bench:     "stall-heavy",
				Workload:  &runner.Workload{Profile: &stallProfile},
				Mechanism: runner.BaseName,
				Hier:      stallHier(),
				CPU:       runner.DefaultOptions("", "").CPU,
				Insts:     1_000_000,
				Warmup:    50_000,
				Seed:      seed,
			}
			if smoke {
				opts.Insts, opts.Warmup = 30_000, 3_000
			}
			return &cellBench{opts: opts}
		},
	},
	{
		name:        "fig8",
		defaultSeed: 42,
		heldOutSeed: 4242,
		build: func(seed uint64, smoke bool) bench {
			w := &fig8Bench{seed: seed, benchmarks: workload.Names(), scale: 4}
			if smoke {
				w.benchmarks, w.scale = []string{"gzip", "mcf", "swim"}, 64
			}
			return w
		},
	},
	{
		name:        "sweep-warm",
		defaultSeed: 1,
		heldOutSeed: 1001,
		build: func(seed uint64, smoke bool) bench {
			w := &sweepBench{seed: seed, warmup: 500_000, pass1: []uint64{5_000, 10_000, 20_000, 40_000}, extra: []uint64{80_000, 160_000}}
			if smoke {
				w.warmup, w.pass1, w.extra = 20_000, []uint64{500, 1_000, 2_000, 4_000}, []uint64{8_000, 16_000}
			}
			return w
		},
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// stallHier is the stall-heavy machine: the Table 1 hierarchy with a
// 1 KB direct-mapped L1D that has one port and one MSHR.
func stallHier() hier.Config {
	cfg := hier.DefaultConfig()
	cfg.L1D.Size = 1 << 10
	cfg.L1D.Assoc = 1
	cfg.L1D.Ports = 1
	cfg.L1D.MSHRs = 1
	cfg.L1D.ReadsPerMSHR = 1
	return cfg
}

// stallProfile is store-dominated random traffic over a region far
// beyond L2: a store miss holds the single MSHR for a full memory
// round trip, so most submits are refused. It is the profile of
// mlbench's core/stall-heavy rows, repeated here so the benchmark
// does not depend on that command's code.
var stallProfile = workload.Profile{
	Name:      "stall-heavy",
	LoadFrac:  0.10,
	StoreFrac: 0.50,
	BlockLen:  12,
	CodeKB:    4,
	Patterns:  []workload.PatternSpec{{Kind: workload.PatRand, Size: 8 << 20}},
	Phases:    []workload.PhaseSpec{{Len: 100_000, Weights: []float64{1}}},
}

// cellBench is one simulation through runner.Run.
type cellBench struct {
	opts runner.Options
}

// iterSeeds is the number of distinct inputs a single-cell run cycles
// through: iteration i simulates the cell on seed + (i mod iterSeeds)·2³²,
// so a run's median spans several seeds' costs instead of one seed's.
// Iteration 0 uses the workload seed itself. The cycle is short, so a
// run of five or more iterations repeats an input and checks it
// against its own earlier result even for a seed with no recorded
// digest; every input of a recorded seed has a recorded digest.
const iterSeeds = 4

func iterSeed(seed uint64, iter int) uint64 { return seed + uint64(iter%iterSeeds)<<32 }

// setup builds and closes the machine runner.Run would build: option
// validation and construction through the public constructor.
func (b *cellBench) setup() error {
	m, err := runner.NewCheckpointMachine(context.Background(), b.opts)
	if err != nil {
		return err
	}
	return m.Close()
}

func (b *cellBench) run(ctx context.Context, iter int) (outcome, error) {
	opts := b.opts
	opts.Seed = iterSeed(opts.Seed, iter)
	t0 := time.Now()
	res, err := runner.RunContext(ctx, opts)
	out := outcome{seed: opts.Seed, wall: time.Since(t0), cells: 1}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cell failed: %v\n", err)
		out.errs = 1
		return out, nil
	}
	out.insts = res.CPU.Insts
	out.digest.Sim = resultDigest(res)
	return out, nil
}

// fig8Bench is the shipped Figure 8 spec rescaled the way mlrank's
// experiments package rescales it, run cold on the campaign scheduler
// with an in-memory result cache.
type fig8Bench struct {
	seed       uint64
	benchmarks []string
	scale      uint64
	plan       *campaign.Plan
}

// spec loads fig8.json and applies the experiments package's budgets
// (150k measured, 50k warm-up) divided by the scale.
func (b *fig8Bench) spec() (campaign.Spec, error) {
	data, err := figures.FS.ReadFile("fig8.json")
	if err != nil {
		return campaign.Spec{}, err
	}
	spec, err := campaign.ParseSpec(data)
	if err != nil {
		return campaign.Spec{}, err
	}
	spec.Benchmarks = append([]string(nil), b.benchmarks...)
	spec.Seeds = []uint64{b.seed}
	spec.Insts = []uint64{150_000 / b.scale}
	spec.Warmup = nil
	spec.Warmups = []uint64{50_000 / b.scale}
	return spec, nil
}

func (b *fig8Bench) setup() error {
	spec, err := b.spec()
	if err != nil {
		return err
	}
	b.plan, err = campaign.NewPlan(spec)
	return err
}

func (b *fig8Bench) run(ctx context.Context, _ int) (outcome, error) {
	var acc campaignAcc
	sched := &campaign.Scheduler{Workers: workers, Cache: campaign.NewMemCache(), OnProgress: acc.progress}
	t0 := time.Now()
	results, st, err := sched.Run(ctx, b.plan.Cells)
	wall := time.Since(t0)
	if err != nil {
		return outcome{}, err
	}
	if err := acc.add(b.plan, results, st); err != nil {
		return outcome{}, err
	}
	return acc.outcome(b.seed, wall, 0), nil
}

// sweepBench is a shared-prefix budget sweep executed twice through
// campaign.Execute over one fresh disk cache and checkpoint directory:
// pass 1 simulates every cell and writes results and checkpoints;
// pass 2 adds two larger budgets and reads everything pass 1 wrote.
type sweepBench struct {
	seed         uint64
	warmup       uint64
	pass1, extra []uint64
}

func (b *sweepBench) specs() [2]campaign.Spec {
	base := campaign.Spec{
		Name:       "perfbench-sweep-warm",
		Benchmarks: []string{"swim", "mcf", "gcc", "gzip"},
		Mechanisms: []string{"Base", "GHB", "TP"},
		Cores:      []string{campaign.CoreOoO, campaign.CoreInOrder},
		Seeds:      []uint64{b.seed},
	}
	warmup := b.warmup
	base.Warmup = &warmup
	p1, p2 := base, base
	p1.Insts = append([]uint64(nil), b.pass1...)
	p2.Insts = append(append([]uint64(nil), b.pass1...), b.extra...)
	return [2]campaign.Spec{p1, p2}
}

func (b *sweepBench) setup() error {
	for _, s := range b.specs() {
		if _, err := campaign.NewPlan(s); err != nil {
			return err
		}
	}
	return nil
}

// scratchDir makes a fresh directory for one sweep iteration's disk
// cache and checkpoints, inside the checkout's build directory.
func scratchDir() (string, error) {
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "sweep-")
}

func (b *sweepBench) run(ctx context.Context, _ int) (outcome, error) {
	dir, err := scratchDir()
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	var acc campaignAcc
	var wall time.Duration
	for _, spec := range b.specs() {
		cfg := campaign.RunConfig{
			Workers:       workers,
			CacheDir:      filepath.Join(dir, "cache"),
			CheckpointDir: filepath.Join(dir, "ckpt"),
			OnProgress:    acc.progress,
		}
		t0 := time.Now()
		sum, err := campaign.Execute(ctx, spec, cfg)
		wall += time.Since(t0)
		if err != nil {
			return outcome{}, err
		}
		// Execute plans internally and returns aggregates only; the
		// cells' results are read back from the disk cache it filled,
		// in the order of the same (deterministic) plan.
		plan, err := campaign.NewPlan(spec)
		if err != nil {
			return outcome{}, err
		}
		results, err := readResults(cfg.CacheDir, plan)
		if err != nil {
			return outcome{}, err
		}
		if err := acc.add(plan, results, sum.Sched); err != nil {
			return outcome{}, err
		}
	}
	return acc.outcome(b.seed, wall, b.warmup), nil
}

// readResults loads every plan cell's result from a disk cache; a cell
// that failed was never written and is absent from the map.
func readResults(dir string, plan *campaign.Plan) (map[string]campaign.CellResult, error) {
	disk, err := campaign.OpenDiskCache(dir)
	if err != nil {
		return nil, err
	}
	results := make(map[string]campaign.CellResult, len(plan.Cells))
	for _, c := range plan.Cells {
		if r, ok := disk.Get(c.Key); ok {
			results[c.Key] = r
		}
	}
	return results, nil
}
