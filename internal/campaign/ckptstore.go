package campaign

import (
	"bytes"
	"encoding/gob"

	"microlib/internal/runner"
)

// CheckpointStore persists warm-state prefix checkpoints under one
// directory, one gob file per prefix fingerprint — the content address
// of everything that shapes the simulation up to the warm-up boundary.
// It is a codec over the same blob store as DiskCache (atomic writes,
// quarantine, counters); its degradation ops and fault points carry
// the "ckpt" prefix. Unlike cell results, checkpoints are pure
// accelerators: losing one costs a prefix re-simulation, never a wrong
// number — every restore is bit-identical to the cold run it replaces.
type CheckpointStore struct {
	blobStore
}

// OpenCheckpointStore creates (if needed) and opens a checkpoint
// directory.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) {
	s := &CheckpointStore{}
	if err := s.open(dir, ".ckpt", "ckpt"); err != nil {
		return nil, err
	}
	return s, nil
}

// Get returns the stored checkpoint for a prefix fingerprint, if
// present, intact, and produced by the current checkpoint format. A
// corrupt entry — undecodable bytes, or a checkpoint whose embedded
// canonical prefix does not hash back to its key — is quarantined and
// served as a miss; a version-skewed entry is just a miss (the next
// Put overwrites it).
func (s *CheckpointStore) Get(key string) (*runner.Checkpoint, bool) {
	var ck runner.Checkpoint
	ok := s.get(key, func(data []byte) error {
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ck); err != nil {
			return err
		}
		if runner.CanonicalKey(ck.Prefix) != key {
			return ioErrorf("campaign: checkpoint %s holds prefix %q", key, ck.Prefix)
		}
		if ck.Version != runner.CheckpointVersion {
			return errStale
		}
		return nil
	})
	if !ok {
		return nil, false
	}
	return &ck, true
}

// Put stores a checkpoint under its prefix fingerprint.
func (s *CheckpointStore) Put(key string, ck *runner.Checkpoint) error {
	if key == "" || ck == nil {
		return errModelf("campaign: checkpoint entry without key or body")
	}
	if runner.CanonicalKey(ck.Prefix) != key {
		return errModelf("campaign: checkpoint prefix %q does not hash to key %s", ck.Prefix, key)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		// An encode failure is a missing gob registration — a wiring
		// bug, not bad media — so it is deterministic, never retried.
		return errModelf("campaign: encode checkpoint: %v", err)
	}
	return s.put(key, buf.Bytes())
}

// reachable implements Store: a spec reads the warm-up prefix of every
// cell that has one.
func (s *CheckpointStore) reachable(p *Plan) map[string]bool {
	keys := make(map[string]bool, len(p.Cells))
	for _, cell := range p.Cells {
		if cell.Opts.Warmup > 0 {
			keys[cell.Opts.PrefixFingerprint()] = true
		}
	}
	return keys
}
