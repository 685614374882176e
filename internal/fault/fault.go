// Package fault provides named, deterministic fault-injection points
// for the campaign engine's chaos tests. Production code carries a
// nil *Injector and pays one nil check per point; tests (and the
// mlcampaign -faults flag) arm an Injector with per-point firing
// rates, and every decision is a pure function of (seed, point, key,
// occurrence number) — the same schedule replays identically
// regardless of worker interleaving.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point names one injection site wired into the campaign engine.
type Point string

// The wired injection points. Each names the component and the
// failure it simulates.
const (
	// CacheGetError makes DiskCache.Get fail its read (an I/O error,
	// degraded and counted, then treated as a miss).
	CacheGetError Point = "cache.get.error"
	// CacheGetCorrupt truncates the bytes DiskCache.Get read, so the
	// entry decodes as corrupt and is quarantined.
	CacheGetCorrupt Point = "cache.get.corrupt"
	// CachePutError makes DiskCache.Put fail (a full or read-only
	// cache directory).
	CachePutError Point = "cache.put.error"
	// CkptGetError, CkptGetCorrupt and CkptPutError are the same three
	// faults on the checkpoint store: a lost or torn checkpoint must
	// cost a prefix re-simulation, never a different result.
	CkptGetError   Point = "ckpt.get.error"
	CkptGetCorrupt Point = "ckpt.get.corrupt"
	CkptPutError   Point = "ckpt.put.error"
	// JournalWrite makes the campaign journal writer fail stickily
	// (its disk filled mid-run).
	JournalWrite Point = "journal.write.error"
	// CellPanic panics inside a scheduler worker mid-cell (a model
	// bug, the no-commit-progress watchdog).
	CellPanic Point = "cell.panic"
	// CellSlow stalls a cell for the injector's SlowFor before it
	// simulates (a pathological config region), so per-cell deadlines
	// have something to cut off.
	CellSlow Point = "cell.slow"
)

// Points returns every wired injection point, sorted.
func Points() []Point {
	return []Point{
		CacheGetCorrupt, CacheGetError, CachePutError,
		CellPanic, CellSlow,
		CkptGetCorrupt, CkptGetError, CkptPutError,
		JournalWrite,
	}
}

type rule struct {
	rate  float64         // firing probability per occurrence, in [0,1]
	keys  map[string]bool // when non-nil, only these keys are eligible
	limit uint64          // when >0, stop after this many fires
}

// Injector is a deterministic fault schedule. The zero value and the
// nil pointer never fire, so production paths can call Fire
// unconditionally.
type Injector struct {
	// SlowFor is how long a fired CellSlow point stalls its cell.
	SlowFor time.Duration

	mu    sync.Mutex
	seed  uint64
	rules map[Point]*rule
	occ   map[string]uint64 // occurrences per point|key
	fired map[Point]uint64
}

// New returns an empty injector; arm points with Enable/EnableKeys.
// The seed keys every firing decision, so two injectors with the same
// seed and rules fire identically.
func New(seed uint64) *Injector {
	return &Injector{
		seed:  seed,
		rules: map[Point]*rule{},
		occ:   map[string]uint64{},
		fired: map[Point]uint64{},
	}
}

// Enable arms a point with a firing probability per occurrence.
// Returns the injector for chaining.
func (in *Injector) Enable(p Point, rate float64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.rule(p)
	r.rate = rate
	return in
}

// EnableKeys arms a point that fires (with the given rate) only for
// the listed keys — "panic exactly this cell".
func (in *Injector) EnableKeys(p Point, rate float64, keys ...string) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.rule(p)
	r.rate = rate
	r.keys = make(map[string]bool, len(keys))
	for _, k := range keys {
		r.keys[k] = true
	}
	return in
}

// Limit caps how many times a point fires in total; 0 means no cap.
func (in *Injector) Limit(p Point, n uint64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rule(p).limit = n
	return in
}

func (in *Injector) rule(p Point) *rule {
	r := in.rules[p]
	if r == nil {
		r = &rule{}
		in.rules[p] = r
	}
	return r
}

// Fire reports whether the point fires for this occurrence of key.
// Safe on a nil injector (never fires).
func (in *Injector) Fire(p Point, key string) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.rules[p]
	if r == nil || r.rate <= 0 {
		return false
	}
	if r.keys != nil && !r.keys[key] {
		return false
	}
	ok := string(p) + "\x00" + key
	n := in.occ[ok]
	in.occ[ok] = n + 1
	if r.limit > 0 && in.fired[p] >= r.limit {
		return false
	}
	// The decision hashes (seed, point, key, occurrence), so it does
	// not depend on which worker asked first.
	h := splitmix(in.seed ^ strhash(ok) ^ (n * 0x9e3779b97f4a7c15))
	if float64(h>>11)/float64(1<<53) >= r.rate {
		return false
	}
	in.fired[p]++
	return true
}

// FireErr is Fire returning a typed *Error when the point fires, nil
// otherwise — for points that inject an error value.
func (in *Injector) FireErr(p Point, key string) error {
	if !in.Fire(p, key) {
		return nil
	}
	return &Error{Point: p, Key: key}
}

// Fired returns how many times a point has fired so far. Safe on nil.
func (in *Injector) Fired(p Point) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[p]
}

// TotalFired sums fires across all points. Safe on nil.
func (in *Injector) TotalFired() uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var n uint64
	for _, c := range in.fired {
		n += c
	}
	return n
}

// Error marks an injected fault; errors.As lets consumers tell chaos
// from genuine infrastructure failure.
type Error struct {
	Point Point
	Key   string
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s (key %s)", e.Point, e.Key)
}

// Parse builds an injector from a compact schedule string, the form
// the mlcampaign -faults flag takes: comma-separated point=rate or
// point=rate@limit entries, e.g. "cell.panic=1@1,cache.put.error=0.5".
func Parse(spec string, seed uint64) (*Injector, error) {
	valid := map[Point]bool{}
	for _, p := range Points() {
		valid[p] = true
	}
	in := New(seed)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("fault: %q is not point=rate", entry)
		}
		p := Point(strings.TrimSpace(name))
		if !valid[p] {
			return nil, fmt.Errorf("fault: unknown point %q (have %s)", name, joinPoints())
		}
		rateStr, limitStr, hasLimit := strings.Cut(val, "@")
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil || rate < 0 || rate > 1 {
			return nil, fmt.Errorf("fault: %s: rate %q must be in [0,1]", p, rateStr)
		}
		in.Enable(p, rate)
		if hasLimit {
			n, err := strconv.ParseUint(limitStr, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("fault: %s: limit %q must be a positive integer", p, limitStr)
			}
			in.Limit(p, n)
		}
	}
	return in, nil
}

func joinPoints() string {
	ps := Points()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = string(p)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// splitmix is splitmix64, the standard seed mixer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// strhash is FNV-1a, inlined to keep the package dependency-free.
func strhash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
