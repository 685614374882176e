// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablation benches for the design choices DESIGN.md
// calls out. Each artifact bench runs its experiment end-to-end
// (workload synthesis, full timing simulation of 26 benchmarks ×
// up to 13 mechanisms, statistics) and prints the regenerated rows
// on the first iteration.
//
// Instruction budgets are divided by MICROLIB_SCALE (default 4 for
// benches) so the full suite completes quickly; run with
// MICROLIB_SCALE=1 for the EXPERIMENTS.md reference numbers.
package microlib_test

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"microlib/internal/cpu"
	"microlib/internal/experiments"
	"microlib/internal/hier"
	"microlib/internal/mem"
	"microlib/internal/runner"
	"microlib/internal/sim"
	"microlib/internal/trace"
	"microlib/internal/workload"
)

func benchScale() uint64 {
	if s := os.Getenv("MICROLIB_SCALE"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil && v > 0 {
			return v
		}
	}
	return 4
}

var (
	sharedRunnerOnce sync.Once
	sharedRunner     *experiments.Runner
	printed          sync.Map
)

func expRunner() *experiments.Runner {
	sharedRunnerOnce.Do(func() {
		sharedRunner = experiments.Default().Scale(benchScale())
	})
	return sharedRunner
}

// benchExperiment runs one paper artifact; grids are memoized inside
// the shared runner, so b.N iterations after the first measure the
// analysis layer, and the first iteration the full simulation.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r := expRunner()
	var table string
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(r, id)
		if err != nil {
			b.Fatal(err)
		}
		table = rep.Table
	}
	if _, done := printed.LoadOrStore(id, true); !done {
		fmt.Printf("\n== %s (scale 1/%d) ==\n%s\n", id, benchScale(), table)
	}
}

func BenchmarkFig1Validation(b *testing.B)      { benchExperiment(b, "fig1") }
func BenchmarkFig2Validation(b *testing.B)      { benchExperiment(b, "fig2") }
func BenchmarkFig3DBCPFix(b *testing.B)         { benchExperiment(b, "fig3") }
func BenchmarkFig4Speedup(b *testing.B)         { benchExperiment(b, "fig4") }
func BenchmarkFig5PowerCost(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkFig6Sensitivity(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7HighLow(b *testing.B)         { benchExperiment(b, "fig7") }
func BenchmarkFig8MemoryModel(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9MSHR(b *testing.B)            { benchExperiment(b, "fig9") }
func BenchmarkFig10SecondGuess(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11TraceSelection(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkTable1Config(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkTable3Mechanisms(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkTable5Comparisons(b *testing.B)   { benchExperiment(b, "table5") }
func BenchmarkTable6WinnerSubsets(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkTable7Selections(b *testing.B)    { benchExperiment(b, "table7") }

// BenchmarkSimulatorThroughput measures raw simulation speed
// (simulated instructions per second) of the full detailed system.
func BenchmarkSimulatorThroughput(b *testing.B) {
	opts := runner.DefaultOptions("swim", "GHB")
	opts.Insts = 50_000
	opts.Warmup = 10_000
	b.ResetTimer()
	var totalInsts uint64
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		totalInsts += res.CPU.Insts
	}
	b.ReportMetric(float64(totalInsts)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkKernelEventQueuePooled measures the event kernel's
// canonical steady state (sim.RunSteadyState) on its one scheduling
// path: a static trampoline with receiver and argument packed into
// the pooled event node, allocation-free.
func BenchmarkKernelEventQueuePooled(b *testing.B) {
	eng := sim.NewEngine()
	b.ResetTimer()
	if sim.RunSteadyState(eng, b.N) == 0 {
		b.Fatal("no events ran")
	}
}

// BenchmarkKernelFarEvents stresses the overflow heap: every event
// lands beyond the calendar ring and is promoted as the window
// slides.
func BenchmarkKernelFarEvents(b *testing.B) {
	eng := sim.NewEngine()
	n := uint64(0)
	fn := sim.Func(func(now uint64, o1, o2 any, a0, a1 uint64) { n++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.AfterFunc(2000+uint64(i%512), fn, nil, nil, 0, 0)
		if i%64 == 63 {
			eng.AdvanceTo(eng.Now() + 64)
		}
	}
	eng.AdvanceTo(eng.Now() + 4096)
	if n == 0 {
		b.Fatal("no events ran")
	}
}

// BenchmarkWorkloadGen measures instruction synthesis throughput.
func BenchmarkWorkloadGen(b *testing.B) {
	gen, err := workload.New("gcc", 1)
	if err != nil {
		b.Fatal(err)
	}
	var inst trace.Inst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&inst)
	}
}

// --- ablation benches (design choices called out in DESIGN.md) ---

func runLucas(b *testing.B, cfg hier.Config) float64 {
	b.Helper()
	opts := runner.DefaultOptions("lucas", "Base")
	opts.Hier = cfg
	opts.Insts = 60_000
	opts.Warmup = 20_000
	res, err := runner.Run(opts)
	if err != nil {
		b.Fatal(err)
	}
	return res.IPC
}

// BenchmarkAblationSDRAMSchedule compares FCFS against row-hit-first
// scheduling (the paper retained the latter after Green's article).
func BenchmarkAblationSDRAMSchedule(b *testing.B) {
	var fcfs, rhf float64
	for i := 0; i < b.N; i++ {
		cfg := hier.DefaultConfig()
		cfg.SDRAM.Policy = mem.FCFS
		fcfs = runLucas(b, cfg)
		cfg.SDRAM.Policy = mem.RowHitFirst
		rhf = runLucas(b, cfg)
	}
	b.ReportMetric(rhf/fcfs, "rowhit/fcfs-ipc")
}

// BenchmarkAblationInterleave compares linear and permutation-based
// bank interleaving (Zhang et al., MICRO'00).
func BenchmarkAblationInterleave(b *testing.B) {
	var lin, perm float64
	for i := 0; i < b.N; i++ {
		cfg := hier.DefaultConfig()
		cfg.SDRAM.Interleave = mem.LinearMap
		lin = runLucas(b, cfg)
		cfg.SDRAM.Interleave = mem.PermuteMap
		perm = runLucas(b, cfg)
	}
	b.ReportMetric(perm/lin, "permute/linear-ipc")
}

// BenchmarkAblationHostCore compares the mechanism benefit measured
// on the out-of-order host versus the in-order host (module
// interoperability across processor models).
func BenchmarkAblationHostCore(b *testing.B) {
	var speedupOoO, speedupIO float64
	for i := 0; i < b.N; i++ {
		for _, inorder := range []bool{false, true} {
			base := runner.DefaultOptions("swim", "Base")
			mech := runner.DefaultOptions("swim", "GHB")
			base.InOrder, mech.InOrder = inorder, inorder
			base.Insts, mech.Insts = 40_000, 40_000
			base.Warmup, mech.Warmup = 10_000, 10_000
			rb, err := runner.Run(base)
			if err != nil {
				b.Fatal(err)
			}
			rm, err := runner.Run(mech)
			if err != nil {
				b.Fatal(err)
			}
			if inorder {
				speedupIO = rm.IPC / rb.IPC
			} else {
				speedupOoO = rm.IPC / rb.IPC
			}
		}
	}
	b.ReportMetric(speedupOoO, "ooo-speedup")
	b.ReportMetric(speedupIO, "inorder-speedup")
}

// BenchmarkAblationPrefetchPriority compares demand-priority
// scheduling of prefetches against treating them as demand requests
// throughout the memory system.
func BenchmarkAblationPrefetchPriority(b *testing.B) {
	var withPrio, without float64
	for i := 0; i < b.N; i++ {
		for _, asDemand := range []bool{false, true} {
			opts := runner.DefaultOptions("swim", "GHB")
			opts.Insts = 40_000
			opts.Warmup = 10_000
			opts.PrefetchAsDemand = asDemand
			res, err := runner.Run(opts)
			if err != nil {
				b.Fatal(err)
			}
			if asDemand {
				without = res.IPC
			} else {
				withPrio = res.IPC
			}
		}
	}
	b.ReportMetric(withPrio, "prio-ipc")
	b.ReportMetric(without, "noprio-ipc")
}

// BenchmarkInOrderCore measures the scalar host core alone.
func BenchmarkInOrderCore(b *testing.B) {
	opts := runner.DefaultOptions("gzip", "Base")
	opts.InOrder = true
	opts.Insts = 40_000
	opts.Warmup = 0
	var ipc float64
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		ipc = res.IPC
	}
	b.ReportMetric(ipc, "ipc")
}

// BenchmarkCPUPipeline measures the OoO core on a hot loop (high L1
// hit rate), isolating core overheads from memory behaviour.
func BenchmarkCPUPipeline(b *testing.B) {
	opts := runner.DefaultOptions("crafty", "Base")
	opts.Insts = 40_000
	opts.Warmup = 0
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.CPU.Cycles
	}
	_ = cycles
	_ = cpu.DefaultConfig()
}
