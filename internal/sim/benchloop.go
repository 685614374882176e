package sim

// RunSteadyState drives the canonical kernel steady-state workload:
// n near-future events scheduled through the pooled AfterFunc path,
// drained in 64-cycle strides, then a final drain. The sim
// microbenchmarks, the root-package benchmarks and the mlbench CI
// allocation gate all call this one definition, so the workload the
// gate measures cannot silently drift from the documented/benchmarked
// one. It returns the number of events that fired.
func RunSteadyState(eng *Engine, n int) uint64 {
	var fired uint64
	fn := Func(func(now uint64, o1, o2 any, a0, a1 uint64) { fired += a0 })
	for i := 0; i < n; i++ {
		eng.AfterFunc(uint64(i%64)+1, fn, nil, nil, 1, 0)
		if i%64 == 63 {
			eng.Drain(eng.Now() + 64)
		}
	}
	eng.Drain(eng.Now() + 128)
	return fired
}

// RunSlabPromotion drives the window-jump promotion workload: slab
// far-future events (spread over ~1k cycles with same-cycle
// collisions) land in the overflow heap, then a single AdvanceTo
// jumps the ring window across all of them at once — the pattern skip
// phases and warm-state restores produce, and the one the batch
// partition-and-reheapify path serves past the pop limit. Returns the
// number of events that fired.
func RunSlabPromotion(eng *Engine, slab int) uint64 {
	var fired uint64
	fn := Func(func(now uint64, o1, o2 any, a0, a1 uint64) { fired += a0 })
	for i := 0; i < slab; i++ {
		eng.AfterFunc(ringSize+uint64(i%1024), fn, nil, nil, 1, 0)
	}
	eng.AdvanceTo(eng.Now() + ringSize + 1024)
	return fired
}
