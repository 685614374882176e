package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"microlib/internal/fault"
)

// The chaos suite: run campaigns under randomized-but-deterministic
// fault schedules (cache and checkpoint read/write errors, corruption,
// cell panics, stalls) and assert the containment invariants hold — no
// goroutine leaks, well-formed JSONL journals, and bit-identical
// convergence when the faults clear.
func TestChaosCampaignsConverge(t *testing.T) {
	// Reference: the spec's true scenario table, computed fault-free
	// and cold, so warm runs below are checked against cold ones.
	ref, err := Execute(context.Background(), tinySpec(), RunConfig{Workers: 2, NoWarm: true})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		name string
		seed uint64
		ckpt bool // checkpoint faults over a populated -ckpt store
	}{
		{"seed1", 1, false}, {"seed2", 2, false}, {"seed3", 3, false},
		{"ckpt", 4, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			inj := fault.New(tc.seed).
				Enable(fault.CachePutError, 0.4).
				Enable(fault.CacheGetError, 0.3).
				Enable(fault.CacheGetCorrupt, 0.3).
				Enable(fault.CellPanic, 0.25).Limit(fault.CellPanic, 2).
				Enable(fault.CellSlow, 0.25).Limit(fault.CellSlow, 2)
			inj.SlowFor = 10 * time.Second
			var ckptDir string
			if tc.ckpt {
				// Checkpoint faults never fail a cell, so this schedule
				// arms nothing else: the faulted run itself must match
				// the cold reference (warm ≡ cold under faults).
				inj = fault.New(tc.seed).
					Enable(fault.CkptGetError, 0.3).
					Enable(fault.CkptGetCorrupt, 0.5).
					Enable(fault.CkptPutError, 0.3)
				ckptDir = filepath.Join(t.TempDir(), "ckpt")
				if _, err := Execute(context.Background(), tinySpec(), RunConfig{Workers: 2, CheckpointDir: ckptDir}); err != nil {
					t.Fatal(err)
				}
			}

			dir := filepath.Join(t.TempDir(), "cache")
			var journal bytes.Buffer
			sum, err := Execute(context.Background(), tinySpec(), RunConfig{
				Workers:       2,
				CacheDir:      dir,
				CheckpointDir: ckptDir,
				Journal:       &journal,
				CellTimeout:   200 * time.Millisecond,
				Retry:         &RetryPolicy{Max: 2, BaseDelay: time.Millisecond},
				Faults:        inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.ckpt {
				for _, p := range []fault.Point{fault.CkptGetError, fault.CkptGetCorrupt, fault.CkptPutError} {
					if inj.Fired(p) == 0 {
						t.Fatalf("%s never fired: the schedule does not exercise it", p)
					}
				}
				if !reflect.DeepEqual(sum.Scenarios, ref.Scenarios) {
					t.Fatalf("checkpoint faults changed results:\n got %+v\nwant %+v", sum.Scenarios, ref.Scenarios)
				}
			}

			// Invariant 1: the campaign completes — every cell is
			// accounted for, failed or not, and failures are typed.
			if sum.Sched.Completed != 8 {
				t.Fatalf("faults must not lose cells: %+v", sum.Sched)
			}
			total := 0
			for kind, n := range sum.Sched.FailedKinds {
				if ErrKind(kind) != KindPanic && ErrKind(kind) != KindTimeout {
					t.Fatalf("unexpected failure kind %q under this schedule", kind)
				}
				total += n
			}
			if total != sum.Sched.Errors {
				t.Fatalf("kind counts must sum to Errors: %+v", sum.Sched)
			}

			// Invariant 2: the journal is line-by-line valid JSON with
			// a footer, whatever the faults did.
			lines := bytes.Split(bytes.TrimSuffix(journal.Bytes(), []byte("\n")), []byte("\n"))
			for i, ln := range lines {
				if !json.Valid(ln) {
					t.Fatalf("journal line %d is not JSON: %q", i+1, ln)
				}
			}
			evs := readJournalStrict(t, journal.Bytes())
			if evs[len(evs)-1].Ev != EvEnd {
				t.Fatal("journal must end with a footer")
			}

			// Invariant 3: once the faults clear, a rerun against the
			// same (possibly degraded) cache converges to the exact
			// fault-free result.
			sum2, err := Execute(context.Background(), tinySpec(), RunConfig{
				Workers:       2,
				CacheDir:      dir,
				CheckpointDir: ckptDir,
			})
			if err != nil {
				t.Fatal(err)
			}
			if sum2.Sched.Errors != 0 || sum2.Sched.Completed != 8 {
				t.Fatalf("fault-free rerun must fully succeed: %+v", sum2.Sched)
			}
			if !reflect.DeepEqual(sum2.Scenarios, ref.Scenarios) {
				t.Fatalf("chaos run left a diverging cache:\n got %+v\nwant %+v", sum2.Scenarios, ref.Scenarios)
			}
		})
	}

	// Invariant 4: nothing leaked across any schedule.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak: %d -> %d\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// The -faults CLI grammar drives the same machinery: a parsed
// schedule behaves like a hand-built one.
func TestChaosParsedScheduleRuns(t *testing.T) {
	inj, err := fault.Parse("cell.panic=1@1,cache.put.error=0.5", 7)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Execute(context.Background(), tinySpec(), RunConfig{
		Workers:  2,
		CacheDir: filepath.Join(t.TempDir(), "cache"),
		Faults:   inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sched.FailedKinds[string(KindPanic)] != 1 {
		t.Fatalf("parsed cell.panic=1@1 must panic exactly one cell: %+v", sum.Sched)
	}
	if sum.Sched.Completed != 8 {
		t.Fatalf("campaign must complete: %+v", sum.Sched)
	}
}
