// Package mechtest provides the shared scaffolding for mechanism
// unit tests: a tiny cache on a fake backend, plus a driver that
// pushes accesses to completion.
package mechtest

import (
	"testing"

	"microlib/internal/cache"
	"microlib/internal/sim"
)

// Backend is a permissive downstream level completing fetches after
// Delay cycles.
type Backend struct {
	Eng     *sim.Engine
	Delay   uint64
	Fetches []uint64
	WBacks  []uint64
	// RefusePrefetch makes prefetch fetches fail (simulating a busy
	// bus).
	RefusePrefetch bool
}

// Fetch implements cache.Backend.
func (b *Backend) Fetch(lineAddr, pc uint64, prefetch bool, sink cache.FillSink) bool {
	if prefetch && b.RefusePrefetch {
		return false
	}
	b.Fetches = append(b.Fetches, lineAddr)
	b.Eng.AfterFunc(b.Delay, DeliverFill, sink, nil, lineAddr, 0)
	return true
}

// DeliverFill is the static event that completes a test fetch: the
// cache.FillSink rides in o1 and the line address in a0.
func DeliverFill(now uint64, o1, _ any, lineAddr, _ uint64) {
	o1.(cache.FillSink).FillLine(lineAddr, now)
}

// WriteBack implements cache.Backend.
func (b *Backend) WriteBack(lineAddr uint64) bool {
	b.WBacks = append(b.WBacks, lineAddr)
	return true
}

// FreeAtHint implements cache.Backend.
func (b *Backend) FreeAtHint() uint64 { return b.Eng.Now() + 1 }

// System is a one-cache test system.
type System struct {
	T     *testing.T
	Eng   *sim.Engine
	Cache *cache.Cache
	Back  *Backend
}

// L1Config is a small direct-mapped L1-like cache (32 sets of 32 B).
func L1Config() cache.Config {
	return cache.Config{
		Name: "L1D", Size: 1 << 10, LineSize: 32, Assoc: 1,
		HitLatency: 1, Ports: 4, MSHRs: 8, ReadsPerMSHR: 4,
		WriteBack: true, AllocOnWrite: true, PrefetchQueueCap: 128,
	}
}

// L2Config is a small 2-way L2-like cache with 64 B lines.
func L2Config() cache.Config {
	return cache.Config{
		Name: "L2", Size: 4 << 10, LineSize: 64, Assoc: 2,
		HitLatency: 4, Ports: 2, MSHRs: 8, ReadsPerMSHR: 4,
		WriteBack: true, AllocOnWrite: true, PrefetchQueueCap: 128,
	}
}

// New builds a test system.
func New(t *testing.T, cfg cache.Config) *System {
	eng := sim.NewEngine()
	be := &Backend{Eng: eng, Delay: 15}
	return &System{T: t, Eng: eng, Cache: cache.New(eng, cfg, be), Back: be}
}

// Access drives one access to completion.
func (s *System) Access(addr, pc uint64) (hit bool) {
	s.T.Helper()
	done := false
	a := &cache.Access{Addr: addr, PC: pc, Done: cache.DoneFunc(func(now uint64, h bool) { done, hit = true, h })}
	cycle := s.Eng.Now()
	for !s.Cache.Access(a).Accepted() {
		cycle++
		s.Eng.AdvanceTo(cycle)
	}
	for !done {
		cycle++
		s.Eng.AdvanceTo(cycle)
		if cycle > 1_000_000 {
			s.T.Fatal("access never completed")
		}
	}
	return hit
}

// Settle runs the clock forward so queued prefetches complete.
func (s *System) Settle(cycles uint64) {
	s.Eng.AdvanceTo(s.Eng.Now() + cycles)
}
