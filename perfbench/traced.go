package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"microlib/internal/cache"
	"microlib/internal/campaign"
	"microlib/internal/core"
	"microlib/internal/cpu"
	"microlib/internal/hier"
	"microlib/internal/mem"
	"microlib/internal/runner"
	"microlib/internal/sim"
	"microlib/internal/trace"
	"microlib/internal/workload"
)

// span is one timed interval around a public call into a layer.
// Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`   // -1 while open
	Parent int    `json:"parent"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the traced run's spans in memory. Campaign workers
// record concurrently, so every method locks.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// cells maps a cell's fingerprint to its open span.
	cells map[string]int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cells: map[string]int{}} }

func (t *tracer) begin(name string, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-timed interval.
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) {
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: parent})
	t.mu.Unlock()
}

// cellHooks returns scheduler hooks that open a "cell" span when a
// worker picks a cell up and close it when the cell finishes. Copies
// of a fingerprint never start, so they record nothing.
func (t *tracer) cellHooks(parent int, acc *campaignAcc) (func(campaign.Cell), func(campaign.Progress)) {
	start := func(c campaign.Cell) {
		id := t.begin("cell", parent)
		t.mu.Lock()
		t.cells[c.Key] = id
		t.mu.Unlock()
	}
	done := func(p campaign.Progress) {
		acc.progress(p)
		t.mu.Lock()
		id, ok := t.cells[p.Cell.Key]
		delete(t.cells, p.Cell.Key)
		t.mu.Unlock()
		if ok {
			t.end(id)
		}
	}
	return start, done
}

// durations returns the lengths of every closed span with the name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// batchStream times the workload generator from outside: it fills a
// buffer of instructions per span and serves the core from the buffer.
// The generator's output does not depend on when it is drawn, so the
// core sees exactly the stream it would see unwrapped.
type batchStream struct {
	src    trace.Stream
	tr     *tracer
	parent int
	buf    []trace.Inst
	i, n   int
	eof    bool
	insts  uint64
}

const streamBatch = 4096

func (b *batchStream) Next(inst *trace.Inst) bool {
	if b.i == b.n {
		if b.eof || !b.fill() {
			return false
		}
	}
	*inst = b.buf[b.i]
	b.i++
	return true
}

func (b *batchStream) fill() bool {
	if b.buf == nil {
		b.buf = make([]trace.Inst, streamBatch)
	}
	t0 := time.Now()
	n := 0
	for n < len(b.buf) && b.src.Next(&b.buf[n]) {
		n++
	}
	b.tr.add("stream.batch", b.parent, t0, time.Since(t0))
	b.eof = n < len(b.buf)
	b.i, b.n = 0, n
	b.insts += uint64(n)
	return n > 0
}

// timedCache brackets a campaign.CellCache's Get and Put with spans.
type timedCache struct {
	c      campaign.CellCache
	tr     *tracer
	parent int
}

func (c *timedCache) Get(key string) (campaign.CellResult, bool) {
	t0 := time.Now()
	r, ok := c.c.Get(key)
	c.tr.add("cache.get", c.parent, t0, time.Since(t0))
	return r, ok
}

func (c *timedCache) Put(res campaign.CellResult) error {
	t0 := time.Now()
	err := c.c.Put(res)
	c.tr.add("cache.put", c.parent, t0, time.Since(t0))
	return err
}

// hostCore is what the benchmark drives on either core model.
type hostCore interface {
	SetWarmup(insts uint64, fn func(cycles uint64))
	Run(maxInsts uint64) cpu.Result
}

// machine is a simulation assembled from the layers' public
// constructors, the same wiring runner.Run does internally.
type machine struct {
	eng    *sim.Engine
	h      *hier.Hierarchy
	mech   core.Mechanism
	host   hostCore
	stream *batchStream
}

// assemble validates opts and builds the machine. With a tracer the
// core reads its instructions through a timing batchStream. Options
// the benchmark's cells do not use (skip, queue override,
// prefetch-as-demand, trace files) are refused rather than ignored.
func assemble(opts runner.Options, tr *tracer, parent int) (*machine, error) {
	if opts.Skip > 0 || opts.QueueOverride > 0 || opts.PrefetchAsDemand {
		return nil, fmt.Errorf("assemble: skip, queue override and prefetch-as-demand are not supported")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	var (
		gen *workload.Generator
		err error
	)
	switch {
	case opts.Workload == nil:
		gen, err = workload.New(opts.Bench, opts.Seed)
	case opts.Workload.Profile != nil:
		if err = opts.Workload.Profile.Validate(); err == nil {
			gen = workload.NewGenerator(*opts.Workload.Profile, opts.Seed)
		}
	default:
		err = fmt.Errorf("assemble: only synthetic workloads are supported")
	}
	if err != nil {
		return nil, err
	}
	m := &machine{eng: sim.NewEngine()}
	m.h = hier.Build(m.eng, opts.Hier)
	if opts.Mechanism != "" && opts.Mechanism != runner.BaseName {
		env := &core.Env{Eng: m.eng, L1D: m.h.L1D, L2: m.h.L2, Values: gen.Oracle()}
		if m.mech, err = core.New(opts.Mechanism, env, opts.Params); err != nil {
			return nil, err
		}
	}
	var stream trace.Stream = gen
	if tr != nil {
		m.stream = &batchStream{src: gen, tr: tr, parent: parent}
		stream = m.stream
	}
	if opts.InOrder {
		m.host = cpu.NewInOrder(m.eng, m.h, stream)
	} else {
		m.host = cpu.NewOoO(m.eng, opts.CPU, m.h, stream)
	}
	return m, nil
}

// snapshot is the machine's counters at the warm-up boundary.
type snapshot struct {
	cycles           uint64
	l1d, l1i, l2     cache.Stats
	mem              mem.Stats
	fsbBusy, fsbWait uint64
}

func (m *machine) snapshot(cycles uint64) snapshot {
	s := snapshot{cycles: cycles, l1d: m.h.L1D.Stats(), l1i: m.h.L1I.Stats(), l2: m.h.L2.Stats(), mem: m.h.Mem.Stats()}
	_, s.fsbBusy, s.fsbWait = m.h.FSB.Stats()
	return s
}

// traced runs the cell on a machine assembled from the public
// constructors and rebuilds runner.Run's result from the layers'
// Stats, so its digest must equal the untraced run's.
func (b *cellBench) traced(ctx context.Context, tr *tracer) (outcome, error) {
	root := tr.begin("cell", -1)
	defer tr.end(root)
	opts := b.opts
	sp := tr.begin("assemble", root)
	m, err := assemble(opts, tr, root)
	tr.end(sp)
	if err != nil {
		return outcome{seed: opts.Seed, cells: 1, errs: 1}, nil
	}

	var warm snapshot
	if opts.Warmup > 0 {
		m.host.SetWarmup(opts.Warmup, func(cycles uint64) { warm = m.snapshot(cycles) })
	}
	total := opts.Warmup + opts.Insts
	t0 := time.Now()
	cres := m.host.Run(total)
	wall := time.Since(t0)
	if cres.Insts < total {
		return outcome{seed: opts.Seed, wall: wall, cells: 1, errs: 1}, nil
	}
	end := m.snapshot(cres.Cycles)

	measCycles := cres.Cycles - warm.cycles
	if measCycles == 0 {
		measCycles = 1
	}
	res := runner.Result{
		CPU: cres,
		IPC: float64(cres.Insts-opts.Warmup) / float64(measCycles),
		L1D: end.l1d.Sub(warm.l1d),
		L1I: end.l1i.Sub(warm.l1i),
		L2:  end.l2.Sub(warm.l2),
		Mem: end.mem.Sub(warm.mem),
	}
	res.BaseCacheAccesses = res.L1D.Accesses + res.L1I.Accesses + res.L2.Accesses
	if cm, ok := m.mech.(core.CostModeler); ok {
		res.Hardware = cm.Hardware()
	}

	out := outcome{seed: opts.Seed, wall: wall, cells: 1, insts: cres.Insts}
	out.digest = digest{Sim: resultDigest(res), Bus: busDigest(m.h.L1Bus, m.h.FSB)}

	_, events := m.eng.Stats()
	rejects := func(s cache.Stats) float64 { return float64(s.RejectPort + s.RejectStall + s.RejectMSHR) }
	probes := 0.0
	for _, s := range []cache.Stats{end.l1d, end.l1i, end.l2} {
		probes += float64(s.Accesses) + rejects(s)
	}
	c := map[string]float64{
		"sim.events":                  float64(events),
		"cache.probes":                probes,
		"cpu.retries_per_inst":        ratio(float64(cres.RetryPort+cres.RetryStall+cres.RetryMSHR), float64(cres.Insts)),
		"cpu.ipc":                     res.IPC,
		"cache.l1d.accept_frac":       ratio(float64(res.L1D.Accesses), float64(res.L1D.Accesses)+rejects(res.L1D)),
		"cache.l1d.miss_ratio":        res.L1D.MissRatio(),
		"cache.l2.miss_ratio":         res.L2.MissRatio(),
		"cache.prefetch_useful_frac":  ratio(float64(res.L1D.PrefetchUseful+res.L2.PrefetchUseful), float64(res.L1D.PrefetchIssued+res.L2.PrefetchIssued)),
		"workload.insts_generated":    float64(m.stream.insts),
		"mem.reads":                   float64(res.Mem.Reads),
		"mem.avg_read_latency_cycles": res.Mem.AvgReadLatency(),
		"bus.fsb.busy_frac":           ratio(float64(end.fsbBusy-warm.fsbBusy), float64(measCycles)),
		"bus.fsb.wait_cycles":         float64(end.fsbWait - warm.fsbWait),
	}
	c[coreKey(campaign.Cell{Opts: opts})] = float64(cres.Insts)
	out.counters = c
	return out, nil
}

// traced runs the fig8 plan on a scheduler whose hooks and cache are
// wrapped in spans, then times machine construction for every cell.
func (b *fig8Bench) traced(ctx context.Context, tr *tracer) (outcome, error) {
	root := tr.begin("campaign", -1)
	sp := tr.begin("plan", root)
	err := b.setup()
	tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	var acc campaignAcc
	sched := &campaign.Scheduler{Workers: workers}
	sched.OnStart, sched.OnProgress = tr.cellHooks(root, &acc)
	sched.Cache = &timedCache{c: campaign.NewMemCache(), tr: tr, parent: root}
	pass := tr.begin("pass1", root)
	t0 := time.Now()
	results, st, err := sched.Run(ctx, b.plan.Cells)
	wall := time.Since(t0)
	tr.end(pass)
	tr.end(root)
	if err != nil {
		return outcome{}, err
	}
	if err := acc.add(b.plan, results, st); err != nil {
		return outcome{}, err
	}
	out := acc.outcome(b.seed, wall, 0)
	out.counters = campaignCounters(&acc, 0)
	return out, nil
}

// traced runs both sweep passes on schedulers wired the way
// campaign.Execute wires them (disk cache, checkpoint store, warm
// checkpointing), with the disk cache wrapped in spans.
func (b *sweepBench) traced(ctx context.Context, tr *tracer) (outcome, error) {
	dir, err := scratchDir()
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	var (
		acc  campaignAcc
		wall time.Duration
	)
	root := tr.begin("campaign", -1)
	defer tr.end(root)
	for i, spec := range b.specs() {
		sp := tr.begin("plan", root)
		plan, err := campaign.NewPlan(spec)
		tr.end(sp)
		if err != nil {
			return outcome{}, err
		}
		sched := &campaign.Scheduler{Workers: workers}
		disk, err := campaign.OpenDiskCache(filepath.Join(dir, "cache"))
		if err != nil {
			return outcome{}, err
		}
		disk.OnDegrade = sched.Degrade
		store, err := campaign.OpenCheckpointStore(filepath.Join(dir, "ckpt"))
		if err != nil {
			return outcome{}, err
		}
		store.OnDegrade = sched.Degrade
		sched.Warm = campaign.NewWarm(store)
		pass := tr.begin(fmt.Sprintf("pass%d", i+1), root)
		sched.Cache = &timedCache{c: disk, tr: tr, parent: pass}
		sched.OnStart, sched.OnProgress = tr.cellHooks(pass, &acc)
		t0 := time.Now()
		results, st, err := sched.Run(ctx, plan.Cells)
		wall += time.Since(t0)
		tr.end(pass)
		if err != nil {
			return outcome{}, err
		}
		if err := acc.add(plan, results, st); err != nil {
			return outcome{}, err
		}
	}
	out := acc.outcome(b.seed, wall, b.warmup)
	out.counters = campaignCounters(&acc, b.warmup)
	return out, nil
}

// campaignCounters derives the simulated counters of a campaign from
// its cells' results (the machines themselves stay inside the
// scheduler) and instruction counts per core model from the progress
// reports. Counters only a machine exposes (events, bus, memory reads,
// cache probes) are absent and read 0.
func campaignCounters(acc *campaignAcc, warmup uint64) map[string]float64 {
	c := map[string]float64{}
	var ipc, l1d, l2, lat, issued, useful, retries, insts float64
	for _, r := range acc.results {
		ipc += r.IPC
		l1d += r.L1DMissRatio
		l2 += r.L2MissRatio
		lat += r.AvgReadLatency
		issued += float64(r.PrefetchIssued)
		useful += float64(r.PrefetchUseful)
		retries += float64(r.Refusals.RetryPort + r.Refusals.RetryStall + r.Refusals.RetryMSHR)
		insts += float64(r.Insts)
	}
	n := float64(len(acc.results))
	c["cpu.ipc"] = ratio(ipc, n)
	c["cache.l1d.miss_ratio"] = ratio(l1d, n)
	c["cache.l2.miss_ratio"] = ratio(l2, n)
	c["mem.avg_read_latency_cycles"] = ratio(lat, n)
	c["cache.prefetch_useful_frac"] = ratio(useful, issued)
	c["cpu.retries_per_inst"] = ratio(retries, insts)

	// Instructions by core model: each simulated cell's committed
	// count, plus one warm-up per prefix run, split by the core of the
	// warm cells that shared each prefix. The generator also produced
	// each cold cell's skipped instructions.
	var generated float64
	prefixes := map[string]campaign.Cell{}
	for _, p := range acc.finished {
		cell := p.Cell
		c[coreKey(cell)] += float64(p.Insts)
		generated += float64(p.Insts)
		if p.Source != "sim" || p.Err != nil {
			continue
		}
		if p.Warm {
			prefixes[cell.Opts.PrefixFingerprint()] = cell
		} else {
			generated += float64(cell.Opts.Skip)
		}
	}
	runs := 0
	for _, st := range acc.stats {
		runs += st.PrefixRuns
	}
	if len(prefixes) > 0 {
		// Prefixes restored from an earlier pass's checkpoints ran no
		// prefix; spread the runs that did happen evenly.
		per := float64(runs) / float64(len(prefixes)) * float64(warmup)
		for _, cell := range prefixes {
			c[coreKey(cell)] += per
			generated += per
		}
	}
	c["workload.insts_generated"] = generated
	for _, st := range acc.stats {
		c["campaign.cache_hits"] += float64(st.CacheHits)
		c["campaign.simulated"] += float64(st.Simulated)
		c["campaign.prefix_runs"] += float64(st.PrefixRuns)
		c["campaign.checkpoint_hits"] += float64(st.CheckpointHits)
		c["campaign.checkpoint_misses"] += float64(st.CheckpointMisses)
		c["campaign.retries"] += float64(st.Retries)
		c["campaign.degraded"] += float64(st.Degraded)
	}
	return c
}

// coreKey names the instruction counter of a cell's core model.
func coreKey(cell campaign.Cell) string {
	if cell.Opts.InOrder {
		return "cpu.inorder.insts"
	}
	return "cpu.ooo.insts"
}

// planMachines lists the plan's cells without their skip offsets:
// construction is what the traced run times, and skipping is
// simulation.
func planMachines(plan *campaign.Plan) []runner.Options {
	out := make([]runner.Options, len(plan.Cells))
	for i, c := range plan.Cells {
		out[i] = c.Opts
		out[i].Skip = 0
	}
	return out
}

// machineReps is how many times a single cell's machine is built for
// runner.setup_ms, so its median is not one sample.
const machineReps = 20

func (b *cellBench) machines() ([]runner.Options, error) {
	return slices.Repeat([]runner.Options{b.opts}, machineReps), nil
}

func (b *fig8Bench) machines() ([]runner.Options, error) { return planMachines(b.plan), nil }

// machines covers pass 2's plan, which holds every pass 1 cell.
func (b *sweepBench) machines() ([]runner.Options, error) {
	plan, err := campaign.NewPlan(b.specs()[1])
	if err != nil {
		return nil, err
	}
	return planMachines(plan), nil
}
