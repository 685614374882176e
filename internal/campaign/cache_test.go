package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestDiskCacheRoundTrip(t *testing.T) {
	c, err := OpenDiskCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("deadbeef"); ok {
		t.Fatal("empty cache must miss")
	}
	res := CellResult{Key: "deadbeef", Bench: "gzip", Mechanism: "GHB", Seed: 7, IPC: 1.25}
	if err := c.Put(res); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("deadbeef")
	if !ok || !reflect.DeepEqual(got, res) {
		t.Fatalf("got %+v ok=%v, want %+v", got, ok, res)
	}
	keys, err := c.Keys()
	if err != nil || len(keys) != 1 || keys[0] != "deadbeef" {
		t.Fatalf("keys: %v %v", keys, err)
	}
}

func TestDiskCacheRejectsBadEntries(t *testing.T) {
	c, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(CellResult{Key: ""}); err == nil {
		t.Error("keyless entry must be rejected")
	}
	if err := c.Put(CellResult{Key: "k", Err: "boom"}); err == nil {
		t.Error("failed cell must not be cached")
	}
}

func TestPruneByAge(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"old1", "old2", "fresh"} {
		if err := c.Put(CellResult{Key: k, Bench: "gzip", Mechanism: "Base"}); err != nil {
			t.Fatal(err)
		}
	}
	past := time.Now().Add(-48 * time.Hour)
	for _, k := range []string{"old1", "old2"} {
		if err := os.Chtimes(filepath.Join(dir, k+".json"), past, past); err != nil {
			t.Fatal(err)
		}
	}

	// Dry run must delete nothing.
	res, err := Prune(c, PruneOptions{OlderThan: 24 * time.Hour, DryRun: true})
	if err != nil || len(res.Removed) != 2 || res.Kept != 1 {
		t.Fatalf("dry run: %+v err=%v", res, err)
	}
	if keys, _ := c.Keys(); len(keys) != 3 {
		t.Fatalf("dry run deleted entries: %v", keys)
	}

	res, err = Prune(c, PruneOptions{OlderThan: 24 * time.Hour})
	if err != nil || len(res.Removed) != 2 || res.Kept != 1 {
		t.Fatalf("prune: %+v err=%v", res, err)
	}
	keys, _ := c.Keys()
	if len(keys) != 1 || keys[0] != "fresh" {
		t.Fatalf("wrong survivors: %v", keys)
	}
}

func TestPruneByPlanReachability(t *testing.T) {
	c, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(Spec{
		Benchmarks: []string{"gzip"},
		Mechanisms: []string{"Base", "SP"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range plan.Cells {
		if err := c.Put(CellResult{Key: cell.Key, Bench: cell.Bench(), Mechanism: cell.Mech()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Put(CellResult{Key: "orphan", Bench: "mcf", Mechanism: "VC"}); err != nil {
		t.Fatal(err)
	}

	res, err := Prune(c, PruneOptions{Keep: plan})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 1 || res.Removed[0].Key != "orphan" || res.Kept != len(plan.Cells) {
		t.Fatalf("prune: %+v", res)
	}
}

func TestPruneNeedsCriteria(t *testing.T) {
	c, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Prune(c, PruneOptions{}); err == nil {
		t.Fatal("criterion-less prune must refuse (it would delete nothing or everything)")
	}
	if _, err := Prune(c, PruneOptions{OlderThan: -time.Hour}); err == nil {
		t.Fatal("negative age must be rejected, not silently match nothing")
	}
}

func TestDiskCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "abc.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("abc"); ok {
		t.Error("corrupt entry must read as a miss")
	}
	// An entry whose body does not match its filename is also a miss.
	if err := os.WriteFile(filepath.Join(dir, "def.json"), []byte(`{"key":"zzz"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("def"); ok {
		t.Error("mismatched key must read as a miss")
	}
}

// A checkpoint store prunes like a result cache, by age and by
// reachability — there from a plan's warm-up prefix fingerprints.
func TestPruneCheckpointStore(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, stats := runPlan(t, &Scheduler{Warm: NewWarm(store)}, warmSpec()); stats.PrefixRuns != 4 {
		t.Fatalf("capture run: %+v", stats)
	}

	// Narrowed to gzip, the spec reaches two of the four prefixes.
	narrow := warmSpec()
	narrow.Benchmarks = []string{"gzip"}
	plan, err := NewPlan(narrow)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Prune(store, PruneOptions{Keep: plan, DryRun: true})
	if err != nil || len(res.Removed) != 2 || res.Kept != 2 {
		t.Fatalf("dry run: %+v err=%v", res, err)
	}
	if keys, _ := store.Keys(); len(keys) != 4 {
		t.Fatalf("dry run deleted checkpoints: %v", keys)
	}
	if _, err := Prune(store, PruneOptions{Keep: plan}); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, c := range plan.Cells {
		want[c.Opts.PrefixFingerprint()] = true
	}
	keys, _ := store.Keys()
	if len(keys) != 2 || !want[keys[0]] || !want[keys[1]] {
		t.Fatalf("survivors %v are not the plan's prefixes %v", keys, want)
	}

	past := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(filepath.Join(dir, keys[0]+".ckpt"), past, past); err != nil {
		t.Fatal(err)
	}
	res, err = Prune(store, PruneOptions{OlderThan: 24 * time.Hour})
	if err != nil || len(res.Removed) != 1 || res.Removed[0].Key != keys[0] || res.Kept != 1 {
		t.Fatalf("age prune: %+v err=%v", res, err)
	}
	if left, _ := store.Keys(); len(left) != 1 || left[0] != keys[1] {
		t.Fatalf("wrong survivor: %v", left)
	}
}
