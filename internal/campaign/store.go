package campaign

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"microlib/internal/fault"
)

// blobStore is the content-addressed file store behind DiskCache and
// CheckpointStore: one <key><ext> file per key under one directory.
// It is safe for concurrent use by the worker pool. Writes go through
// a synced temp file and an atomic rename, so a killed run never
// leaves a torn entry; a corrupt entry reads as a miss and is
// quarantined to <key>.corrupt, never served as bad data. The public
// stores are thin codecs over it.
type blobStore struct {
	dir string
	ext string // file extension of live entries: ".json" or ".ckpt"
	op  string // "cache" or "ckpt": prefixes Degradation.Op and fault points

	// OnDegrade, when non-nil, observes read errors and corrupt-entry
	// quarantines (ops "<op>.get", "<op>.corrupt"). Set before the
	// store is shared across goroutines.
	OnDegrade func(Degradation)
	// Faults, when non-nil, arms the store's fault-injection points
	// (<op>.get.error, <op>.get.corrupt, <op>.put.error).
	Faults *fault.Injector

	hits         atomic.Uint64
	misses       atomic.Uint64
	bytesRead    atomic.Uint64
	puts         atomic.Uint64
	bytesWritten atomic.Uint64
	corrupt      atomic.Uint64
}

// CacheCounters is a snapshot of a store's access statistics since it
// was opened: how often a lookup was served from disk, how often it
// missed, and how much data moved.
type CacheCounters struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	BytesRead    uint64 `json:"bytes_read"`
	Puts         uint64 `json:"puts"`
	BytesWritten uint64 `json:"bytes_written"`
	// Corrupt counts entries that failed to decode and were
	// quarantined to <key>.corrupt (each also counts as a miss).
	Corrupt uint64 `json:"corrupt,omitempty"`
}

// errStale marks a decoded entry that is intact but unusable (a
// checkpoint from another format version): a plain miss, left in
// place for the next Put to overwrite.
var errStale = errors.New("campaign: stale entry")

// open creates (if needed) and adopts the store directory.
func (s *blobStore) open(dir, ext, op string) error {
	s.dir, s.ext, s.op = dir, ext, op
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: open %s store: %w", op, err)
	}
	return nil
}

// Counters returns the access statistics accumulated since the store
// was opened. Safe to call concurrently with Get/Put (a metrics
// endpoint scrapes it mid-run).
func (s *blobStore) Counters() CacheCounters {
	return CacheCounters{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		BytesRead:    s.bytesRead.Load(),
		Puts:         s.puts.Load(),
		BytesWritten: s.bytesWritten.Load(),
		Corrupt:      s.corrupt.Load(),
	}
}

func (s *blobStore) path(key string) string {
	return filepath.Join(s.dir, key+s.ext)
}

func (s *blobStore) degrade(d Degradation) {
	if s.OnDegrade != nil {
		s.OnDegrade(d)
	}
}

// inject fires the injection point <op>.<what> for key.
func (s *blobStore) inject(what, key string) error {
	if s.Faults == nil {
		return nil
	}
	return s.Faults.FireErr(fault.Point(s.op+"."+what), key)
}

// get reads key's entry and hands its bytes to decode, reporting
// whether it is a hit. A read error is a miss (degraded unless the
// entry is simply absent); a decode error quarantines the entry —
// renamed to <key>.corrupt so the evidence survives instead of being
// overwritten by the recomputation — counts it, degrades and misses;
// errStale is a plain miss.
func (s *blobStore) get(key string, decode func([]byte) error) bool {
	data, err := os.ReadFile(s.path(key))
	if ferr := s.inject("get.error", key); ferr != nil {
		err = ferr
	}
	if err != nil {
		s.misses.Add(1)
		if !os.IsNotExist(err) {
			s.degrade(Degradation{Op: s.op + ".get", Key: key, Err: err})
		}
		return false
	}
	if s.inject("get.corrupt", key) != nil {
		data = data[:len(data)/2] // torn mid-record
	}
	if err := decode(data); err != nil {
		s.misses.Add(1)
		if errors.Is(err, errStale) {
			return false
		}
		s.corrupt.Add(1)
		if qerr := os.Rename(s.path(key), filepath.Join(s.dir, key+".corrupt")); qerr != nil {
			err = ioErrorf("%v (quarantine failed: %v)", err, qerr)
		}
		s.degrade(Degradation{Op: s.op + ".corrupt", Key: key, Err: err})
		return false
	}
	s.hits.Add(1)
	s.bytesRead.Add(uint64(len(data)))
	return true
}

// put durably stores data under key: written to a temp file, synced,
// then renamed over the entry. Every failure is classified io.
func (s *blobStore) put(key string, data []byte) error {
	if err := s.inject("put.error", key); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "."+key+".tmp*")
	if err != nil {
		return ioErrorf("campaign: %s write: %v", s.op, err)
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path(key))
	}
	if err != nil {
		return ioErrorf("campaign: %s write: %v", s.op, err)
	}
	s.puts.Add(1)
	s.bytesWritten.Add(uint64(len(data)))
	return nil
}

// Keys lists the stored keys, sorted. A concurrent writer's temp
// files are dot-prefixed and quarantined entries carry another
// extension, so only live entries appear.
func (s *blobStore) Keys() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("campaign: list %s store: %w", s.op, err)
	}
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, s.ext) {
			continue
		}
		keys = append(keys, strings.TrimSuffix(name, s.ext))
	}
	sort.Strings(keys)
	return keys, nil
}

// Entry describes one stored file.
type Entry struct {
	Key     string
	ModTime time.Time
	Size    int64
}

// Entries lists the stored entries with their file metadata, sorted
// by key. Entries removed between listing and stat are skipped.
func (s *blobStore) Entries() ([]Entry, error) {
	keys, err := s.Keys()
	if err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(keys))
	for _, k := range keys {
		info, err := os.Stat(s.path(k))
		if err != nil {
			continue
		}
		out = append(out, Entry{Key: k, ModTime: info.ModTime(), Size: info.Size()})
	}
	return out, nil
}

// Remove deletes one entry. Removing a missing key is not an error (a
// concurrent prune may have won the race).
func (s *blobStore) Remove(key string) error {
	if err := os.Remove(s.path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("campaign: remove %s entry: %w", s.op, err)
	}
	return nil
}

// Store is the retention surface Prune works over: a DiskCache or a
// CheckpointStore.
type Store interface {
	Entries() ([]Entry, error)
	Remove(key string) error
	// reachable returns the keys a plan can still read from the store.
	reachable(p *Plan) map[string]bool
}

// PruneOptions selects which stored entries to delete.
type PruneOptions struct {
	// OlderThan removes entries whose file modification time is more
	// than this duration before Now. Zero disables the age criterion.
	OlderThan time.Duration
	// Keep, when non-nil, removes every entry the plan cannot reach —
	// store GC down to exactly what a spec can still read: its cell
	// fingerprints from a result cache, its warm-up prefix
	// fingerprints from a checkpoint store.
	Keep *Plan
	// Now anchors the age comparison; the zero value means
	// time.Now().
	Now time.Time
	// DryRun reports what would be removed without deleting anything.
	DryRun bool
}

// PruneResult reports what Prune did (or, for a dry run, would do).
type PruneResult struct {
	Removed []Entry
	Kept    int
	Bytes   int64 // total size of removed entries
}

// Prune deletes stored entries per opts: an entry is removed when it
// is older than the age limit or unreachable from the keep-plan,
// whichever criteria are enabled.
func Prune(s Store, opts PruneOptions) (PruneResult, error) {
	if opts.OlderThan < 0 {
		return PruneResult{}, fmt.Errorf("campaign: negative prune age %v", opts.OlderThan)
	}
	if opts.OlderThan == 0 && opts.Keep == nil {
		return PruneResult{}, fmt.Errorf("campaign: prune needs an age limit or a keep plan")
	}
	entries, err := s.Entries()
	if err != nil {
		return PruneResult{}, err
	}
	now := opts.Now
	if now.IsZero() {
		now = time.Now()
	}
	var reachable map[string]bool
	if opts.Keep != nil {
		reachable = s.reachable(opts.Keep)
	}
	var res PruneResult
	for _, e := range entries {
		tooOld := opts.OlderThan > 0 && now.Sub(e.ModTime) > opts.OlderThan
		unreachable := reachable != nil && !reachable[e.Key]
		if !tooOld && !unreachable {
			res.Kept++
			continue
		}
		if !opts.DryRun {
			if err := s.Remove(e.Key); err != nil {
				return res, err
			}
		}
		res.Removed = append(res.Removed, e)
		res.Bytes += e.Size
	}
	return res, nil
}
