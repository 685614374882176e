package campaign

import (
	"encoding/json"
	"sync"

	"microlib/internal/core"
)

// CellResult is the serializable outcome of one cell — the subset of
// runner.Result the aggregation layer needs, small enough to persist
// per cell. Err is set (and the rest zero) when the simulation
// failed; failed cells are never written to the cache.
type CellResult struct {
	Key       string  `json:"key"`
	Bench     string  `json:"bench"`
	Mechanism string  `json:"mechanism"`
	Seed      uint64  `json:"seed"`
	IPC       float64 `json:"ipc"`
	Cycles    uint64  `json:"cycles"`
	Insts     uint64  `json:"insts"`

	L1DMissRatio   float64 `json:"l1d_miss_ratio"`
	L2MissRatio    float64 `json:"l2_miss_ratio"`
	PrefetchIssued uint64  `json:"prefetch_issued,omitempty"`
	PrefetchUseful uint64  `json:"prefetch_useful,omitempty"`
	AvgReadLatency float64 `json:"avg_read_latency"`

	// Hardware lists the mechanism's SRAM structures with their
	// activity counters, and BaseCacheAccesses approximates base
	// cache activity — the inputs of the CACTI/XCACTI-style cost and
	// power models (Figure 5). Fresh results always carry a non-nil
	// (possibly empty) Hardware slice; nil marks an entry cached
	// before these fields existed, which is still valid for IPC but
	// carries no cost data — the Figure 5 formatter flags such cells
	// instead of silently reporting the mechanism as cost-free.
	Hardware          []core.HWTable `json:"hardware"`
	BaseCacheAccesses uint64         `json:"base_cache_accesses,omitempty"`

	// Refusals is the cell's cache-refusal pressure: cache-side
	// rejects summed over the hierarchy plus the core-side per-reason
	// retry counts. Entries cached before these fields existed decode
	// as all-zero, which reads as "no pressure recorded" (the
	// Hardware-nil precedent applies: still valid for IPC).
	Refusals RefusalStats `json:"refusals,omitzero"`

	Err string `json:"err,omitempty"`
	// ErrKind classifies Err per the failure taxonomy
	// (model/panic/timeout/io); empty when Err is empty.
	ErrKind string `json:"err_kind,omitempty"`
}

// RefusalStats aggregates cache-refusal pressure: how often the
// hierarchy's caches refused an access (by reason) and how often the
// core absorbed a refusal on its retry paths.
type RefusalStats struct {
	RejectPort  uint64 `json:"reject_port,omitempty"`
	RejectStall uint64 `json:"reject_stall,omitempty"`
	RejectMSHR  uint64 `json:"reject_mshr,omitempty"`
	RetryPort   uint64 `json:"retry_port,omitempty"`
	RetryStall  uint64 `json:"retry_stall,omitempty"`
	RetryMSHR   uint64 `json:"retry_mshr,omitempty"`
}

// Total is the summed refusal count across reasons (cache side).
func (r RefusalStats) Total() uint64 {
	return r.RejectPort + r.RejectStall + r.RejectMSHR
}

// add accumulates another cell's refusal pressure.
func (r *RefusalStats) add(o RefusalStats) {
	r.RejectPort += o.RejectPort
	r.RejectStall += o.RejectStall
	r.RejectMSHR += o.RejectMSHR
	r.RetryPort += o.RetryPort
	r.RetryStall += o.RetryStall
	r.RetryMSHR += o.RetryMSHR
}

// MemCache is an in-process CellCache: a plain map under a mutex.
// The experiments harness layers it in front of the disk cache so
// every figure of one run shares cells (the paper's figures overlap
// heavily — fig8's SDRAM arm is the main grid).
type MemCache struct {
	mu sync.Mutex
	m  map[string]CellResult
}

// NewMemCache returns an empty in-process cell cache.
func NewMemCache() *MemCache { return &MemCache{m: map[string]CellResult{}} }

// Get implements CellCache.
func (c *MemCache) Get(key string) (CellResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.m[key]
	return res, ok
}

// Put implements CellCache.
func (c *MemCache) Put(res CellResult) error {
	if res.Key == "" {
		return errModelf("campaign: cache entry without key")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[res.Key] = res
	return nil
}

// LayeredCache chains caches: Get tries each layer in order, filling
// the earlier (faster) layers on a hit; Put writes through to all.
type LayeredCache struct {
	Layers []CellCache
	// OnDegrade, when non-nil, observes back-fill Put failures (the
	// hit is still served; the failing front layer keeps missing).
	OnDegrade func(Degradation)
}

// Get implements CellCache.
func (c *LayeredCache) Get(key string) (CellResult, bool) {
	for i, layer := range c.Layers {
		if res, ok := layer.Get(key); ok {
			for _, front := range c.Layers[:i] {
				if err := front.Put(res); err != nil && c.OnDegrade != nil {
					// The hit stands; the front layer just keeps
					// missing — degraded, not fatal, but visible.
					c.OnDegrade(Degradation{Op: "cache.backfill", Key: key, Err: err})
				}
			}
			return res, true
		}
	}
	return CellResult{}, false
}

// Put implements CellCache. The first layer error is returned, but
// every layer sees the entry (a full disk degrades to recomputation,
// not to a poisoned run).
func (c *LayeredCache) Put(res CellResult) error {
	var first error
	for _, layer := range c.Layers {
		if err := layer.Put(res); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DiskCache persists cell results under one directory, one indented
// JSON file per fingerprint key, on the shared blob store: atomic
// writes, corrupt entries quarantined and served as misses. Its
// degradation ops and fault points carry the "cache" prefix.
type DiskCache struct {
	blobStore
}

// OpenDiskCache creates (if needed) and opens a cache directory.
func OpenDiskCache(dir string) (*DiskCache, error) {
	c := &DiskCache{}
	if err := c.open(dir, ".json", "cache"); err != nil {
		return nil, err
	}
	return c, nil
}

// Get returns the cached result for key, if present and intact. An
// undecodable entry, or one whose body names another key, is
// quarantined and served as a miss.
func (c *DiskCache) Get(key string) (CellResult, bool) {
	var res CellResult
	ok := c.get(key, func(data []byte) error {
		if err := json.Unmarshal(data, &res); err != nil {
			return err
		}
		if res.Key != key {
			return ioErrorf("campaign: cache entry %s holds key %s", key, res.Key)
		}
		return nil
	})
	if !ok {
		return CellResult{}, false
	}
	return res, true
}

// Put stores a successful result under its key.
func (c *DiskCache) Put(res CellResult) error {
	if res.Key == "" {
		return errModelf("campaign: cache entry without key")
	}
	if res.Err != "" {
		return errModelf("campaign: refusing to cache failed cell %s", res.Key)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return c.put(res.Key, data)
}

// reachable implements Store: a spec reads its cells' results.
func (c *DiskCache) reachable(p *Plan) map[string]bool {
	keys := make(map[string]bool, len(p.Cells))
	for _, cell := range p.Cells {
		keys[cell.Key] = true
	}
	return keys
}
