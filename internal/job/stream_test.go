package job

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"shapesol/internal/check"
	"shapesol/internal/core"
	"shapesol/internal/counting"
	"shapesol/internal/pop"
	"shapesol/internal/pop/urn"
	"shapesol/internal/rules"
	"shapesol/internal/sim"
	"shapesol/internal/snap"
)

// streamDigestsFile pins the full random stream of every golden job.
const streamDigestsFile = "stream.digests.json"

// streamDigest is one golden job's pinned stream: how many snapshots the
// Progress cadence captured, a SHA-256 over all of them, and a SHA-256
// over the final Result envelope (wall time zeroed).
type streamDigest struct {
	Snapshots int    `json:"snapshots"`
	Stream    string `json:"stream"`
	Result    string `json:"result"`
}

// decodeMemento decodes a snapshot payload into the concrete memento type
// M of one protocol × engine pair.
func decodeMemento[M any](data []byte) (any, error) {
	m := new(M)
	return m, snap.DecodeState(data, m)
}

// streamMementos names the memento type behind each golden job, so the
// pin can hash the decoded engine state instead of its gob bytes: gob
// numbers types in the order a process first encodes them, so the same
// memento encodes differently depending on which tests ran before.
var streamMementos = map[string]func([]byte) (any, error){
	"counting-upper-bound.pop":   decodeMemento[pop.Memento[counting.UBState]],
	"counting-upper-bound.urn":   decodeMemento[urn.Memento[counting.UBState]],
	"counting-upper-bound.check": decodeMemento[check.Memento[counting.UBState]],
	"simple-uid":                 decodeMemento[pop.Memento[*counting.SimpleUIDState]],
	"uid":                        decodeMemento[pop.Memento[*counting.UIDState]],
	"leaderless":                 decodeMemento[pop.Memento[counting.ObsState]],
	"count-line":                 decodeMemento[sim.Memento[core.CountLineState]],
	"square-knowing-n":           decodeMemento[sim.Memento[core.SquareKnowingNState]],
	"universal":                  decodeMemento[sim.Memento[core.UniversalState]],
	"parallel-3d":                decodeMemento[sim.Memento[core.Parallel3DState]],
	"replication":                decodeMemento[sim.Memento[core.ReplicationState]],
	"stabilize":                  decodeMemento[sim.Memento[rules.State]],
}

// TestStreamDigests pins every random draw of every golden job, which the
// goldens alone cannot: a Result records only what the run ended with, and
// a predicate-terminated run's step count is quantized to its check
// period. Each job runs with a Checkpoint hook that captures a snapshot
// at every Progress tick; the engine state of each one (RNG state,
// counters, the order of every sampling set) is hashed as canonical JSON,
// and the digests must equal the committed ones. A kernel change that
// draws one number differently, or samples one set in a different order,
// moves a digest. Regenerate only for an intended stream change, with
// `go test ./internal/job -run StreamDigests -update`.
func TestStreamDigests(t *testing.T) {
	path := filepath.Join("testdata", streamDigestsFile)
	want := map[string]streamDigest{}
	if !*update {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to regenerate)", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[string]streamDigest, len(goldenJobs))
	for _, g := range goldenJobs {
		decode, ok := streamMementos[g.file]
		if !ok {
			t.Errorf("golden job %s has no memento type in streamMementos", g.file)
			continue
		}
		t.Run(g.file, func(t *testing.T) {
			d := runStreamDigest(t, g.job, decode)
			got[g.file] = d
			if *update {
				return
			}
			if w, ok := want[g.file]; !ok {
				t.Errorf("no committed digest (run with -update to regenerate)")
			} else if d != w {
				t.Errorf("stream drifted:\ngot  %+v\nwant %+v", d, w)
			}
		})
	}
	if !*update {
		if len(want) != len(got) {
			t.Errorf("%s has %d entries, the golden list %d", path, len(want), len(got))
		}
		return
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runStreamDigest runs one job, hashing every snapshot on the Progress
// cadence and the final Result.
func runStreamDigest(t *testing.T, j Job, decode func([]byte) (any, error)) streamDigest {
	t.Helper()
	var d streamDigest
	h := sha256.New()
	j.Checkpoint = func(steps int64, capture func() (*snap.Snapshot, error)) {
		s, err := capture()
		if err != nil {
			t.Fatalf("capture at step %d: %v", steps, err)
		}
		m, err := decode(s.State)
		if err != nil {
			t.Fatalf("decode at step %d: %v", steps, err)
		}
		canon, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("canonical form at step %d: %v", steps, err)
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(steps))
		h.Write(buf[:])
		h.Write(canon)
		d.Snapshots++
	}
	res, err := Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	d.Stream = hex.EncodeToString(h.Sum(nil))
	sum := sha256.Sum256(envelopeBytes(t, res))
	d.Result = hex.EncodeToString(sum[:])
	return d
}
