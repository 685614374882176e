package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refEvent mirrors one scheduled event in the reference model: a
// plain list stably sorted by cycle, which is the definition of
// timestamp-then-FIFO order.
type refEvent struct {
	when uint64
	id   int
}

// TestPropertySameCycleFIFOAcrossWraparound drives random schedules
// whose delays straddle the ring window, so events wrap the bucket
// ring, land in the overflow heap, and get promoted back — and checks
// the execution order against a stable sort on scheduling order. Each
// round also schedules follow-on events from inside handlers, the
// pattern every cache/memory component uses.
func TestPropertySameCycleFIFOAcrossWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		eng := NewEngine()
		var ref []refEvent
		var got []int
		id := 0

		// Delays concentrate on a few cycles (FIFO pressure) but
		// reach past 3 ring windows (overflow + promotion pressure).
		delay := func() uint64 {
			switch rng.Intn(4) {
			case 0:
				return uint64(rng.Intn(4)) // same-cycle collisions
			case 1:
				return uint64(rng.Intn(ringSize))
			case 2:
				return uint64(ringSize + rng.Intn(ringSize))
			default:
				return uint64(rng.Intn(3 * ringSize))
			}
		}

		var schedule func(d uint64, depth int)
		schedule = func(d uint64, depth int) {
			myID := id
			id++
			ref = append(ref, refEvent{when: eng.Now() + d, id: myID})
			after(eng, d, func() {
				got = append(got, myID)
				if depth > 0 && rng.Intn(2) == 0 {
					// Nested scheduling from a handler, including
					// same-cycle (delay 0) follow-ons.
					schedule(delay(), depth-1)
				}
			})
		}

		n := 100 + rng.Intn(200)
		for i := 0; i < n; i++ {
			schedule(delay(), 2)
			if rng.Intn(8) == 0 {
				eng.AdvanceTo(eng.Now() + delay())
			}
		}
		eng.AdvanceTo(eng.Now() + 8*ringSize)

		if eng.Pending() != 0 {
			t.Fatalf("round %d: %d events never ran", round, eng.Pending())
		}
		// The reference order: stable sort by cycle. Scheduling order
		// (ascending id per insertion) is the tie-break, and the ids
		// were assigned in exactly that order... but nested events get
		// ids at execution time, which still matches their scheduling
		// order relative to everything scheduled earlier only if the
		// sort is stable over the append order. ref was appended in
		// scheduling order, so a stable sort gives the ground truth.
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].when < ref[j].when })
		if len(got) != len(ref) {
			t.Fatalf("round %d: ran %d events, scheduled %d", round, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i].id {
				t.Fatalf("round %d: position %d ran event %d, want %d (FIFO order violated)",
					round, i, got[i], ref[i].id)
			}
		}
	}
}

// TestOverflowPromotionOrder pins the trickiest ordering case: events
// for one far-future cycle scheduled long in advance (overflow), then
// more events for the same cycle scheduled after the window slid over
// it (direct ring entry). The overflow events must run first.
func TestOverflowPromotionOrder(t *testing.T) {
	eng := NewEngine()
	target := uint64(3 * ringSize)
	var got []int
	at(eng, target, func() { got = append(got, 0) }) // overflow
	at(eng, target, func() { got = append(got, 1) }) // overflow
	// Slide the window until target is inside it, then schedule direct.
	eng.AdvanceTo(target - 10)
	at(eng, target, func() { got = append(got, 2) }) // ring, after promotion
	eng.AdvanceTo(target)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("promotion broke FIFO: %v", got)
	}
}

// TestRingWraparoundSameBucket pins bucket-index aliasing: cycles c
// and c+ringSize share a bucket index; the earlier cycle must drain
// completely before the later one's events become visible.
func TestRingWraparoundSameBucket(t *testing.T) {
	eng := NewEngine()
	var got []uint64
	at(eng, 5, func() {
		got = append(got, eng.Now())
		at(eng, 5+ringSize, func() { got = append(got, eng.Now()) })
	})
	eng.AdvanceTo(5 + 2*ringSize)
	if len(got) != 2 || got[0] != 5 || got[1] != 5+ringSize {
		t.Fatalf("aliased buckets misordered: %v", got)
	}
}

// TestPropertySlabPromotionFIFO forces the batch-promotion path: big
// random slabs of far-future events (with same-cycle collisions) land
// in the overflow heap and a single window jump promotes them all at
// once, tripping the partition-and-reheapify switch past the pop
// limit. The last rounds draw slabs below promoteBatchMin, which
// promote by heap pops alone. Execution order is checked against a
// stable sort on scheduling order.
func TestPropertySlabPromotionFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 30; round++ {
		slab := 64 + rng.Intn(512)
		if round >= 20 {
			slab = 1 + rng.Intn(promoteBatchMin-1)
		}
		delays := make([]uint64, slab)
		for i := range delays {
			// Far-future, concentrated on few cycles for FIFO pressure.
			delays[i] = uint64(ringSize + rng.Intn(64)*97)
		}
		eng := NewEngine()
		var got []int
		for i, d := range delays {
			i := i
			after(eng, d, func() { got = append(got, i) })
		}
		eng.AdvanceTo(eng.Now() + 8*ringSize)
		if eng.Pending() != 0 {
			t.Fatalf("round %d: %d events never ran", round, eng.Pending())
		}

		ref := make([]refEvent, slab)
		for i, d := range delays {
			ref[i] = refEvent{when: d, id: i}
		}
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].when < ref[j].when })
		for i := range ref {
			if got[i] != ref[i].id {
				t.Fatalf("round %d (slab %d): promotion broke FIFO at %d: got %d want %d", round, slab, i, got[i], ref[i].id)
			}
		}
	}
}

// TestIdleJumpOverEmptyWindow checks that advancing far past every
// pending event leaves the clock and calendar consistent (the idle-
// skip path in the host cores relies on this).
func TestIdleJumpOverEmptyWindow(t *testing.T) {
	eng := NewEngine()
	ran := 0
	at(eng, 100, func() { ran++ })
	eng.AdvanceTo(50_000_000)
	if ran != 1 || eng.Now() != 50_000_000 || eng.Pending() != 0 {
		t.Fatalf("long jump broke engine: ran=%d now=%d pending=%d", ran, eng.Now(), eng.Pending())
	}
	if next, ok := eng.NextEventAt(); ok {
		t.Fatalf("phantom event at %d", next)
	}
	after(eng, 7, func() { ran++ })
	if next, ok := eng.NextEventAt(); !ok || next != eng.Now()+7 {
		t.Fatalf("NextEventAt=%d,%v want %d", next, ok, eng.Now()+7)
	}
}

// TestSteadyStateZeroAllocs is the kernel's headline guarantee: once
// the node pool is warm, scheduling and draining events through the
// pooled AtFunc path allocates nothing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	eng := NewEngine()
	var fired uint64
	count := func(now uint64, o1, o2 any, a0, a1 uint64) { fired++ }
	// Warm the pool and the overflow heap backing array past the
	// steady-state in-flight population of the loop below (~1400
	// events live at delays up to ringSize+1500).
	for i := 0; i < 4000; i++ {
		eng.AfterFunc(uint64(i%2000)+1, count, nil, nil, 0, 0)
	}
	eng.Drain(eng.Now() + 8*ringSize)

	allocs := testing.AllocsPerRun(1000, func() {
		eng.AfterFunc(uint64(fired%300)+1, count, nil, nil, 0, 0)
		eng.AfterFunc(uint64(fired%1500)+ringSize, count, nil, nil, 0, 0)
		eng.Drain(eng.Now() + 2)
	})
	eng.Drain(eng.Now() + 8*ringSize)
	if allocs != 0 {
		t.Fatalf("steady-state scheduling allocates %.1f per op, want 0", allocs)
	}
}
