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
	"shapesol/internal/obs"
	"shapesol/internal/pop"
	"shapesol/internal/pop/urn"
	"shapesol/internal/rules"
	"shapesol/internal/sched"
	"shapesol/internal/sim"
	"shapesol/internal/snap"
)

// streamDigestsFile pins the full random stream of every golden job.
const streamDigestsFile = "stream.digests.json"

// streamDigest is one pinned job's stream: how many snapshots the
// Progress cadence captured, a SHA-256 over all of them, a SHA-256 over
// the final Result envelope (wall time zeroed), and the fault events the
// run published to its metrics (absent for a run without a fault clock).
type streamDigest struct {
	Snapshots   int    `json:"snapshots"`
	Stream      string `json:"stream"`
	Result      string `json:"result"`
	FaultEvents int64  `json:"fault_events,omitempty"`
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

// streamJob is one pinned run: its stream.digests.json key, the
// streamMementos entry of its protocol × engine, and the job.
type streamJob struct {
	key, memento string
	job          Job
}

// profiledStreamJobs pins the runs under a scheduler or fault profile,
// which no golden job covers: every pair-selection policy of the pop
// engine, each with a fault lane, the sim engine under the clustered
// policy with crashes and departures, and a weighted urn run with
// crashes. Two faultedSnapshotJobs entries join them in streamJobs.
var profiledStreamJobs = []streamJob{
	{"counting-upper-bound.pop.weighted-arrive", "counting-upper-bound.pop", Job{
		Protocol: "counting-upper-bound",
		Params: Params{N: 60, B: 4, Fault: &sched.Profile{
			Scheduler: sched.KindWeighted, Rates: []int64{1, 2, 5},
			ArriveEvery: 400, MaxChurn: 20,
		}},
		Seed: 2, MaxSteps: 60_000}},
	{"counting-upper-bound.pop.clustered-crash", "counting-upper-bound.pop", Job{
		Protocol: "counting-upper-bound",
		Params: Params{N: 60, B: 4, Fault: &sched.Profile{
			Scheduler: sched.KindClustered, BlockSize: 8,
			CrashEvery: 300, MaxCrashes: 12, RecoverEvery: 600,
		}},
		Seed: 3, MaxSteps: 60_000}},
	{"counting-upper-bound.pop.adversarial-depart", "counting-upper-bound.pop", Job{
		Protocol: "counting-upper-bound",
		Params: Params{N: 60, B: 4, Fault: &sched.Profile{
			Scheduler: sched.KindAdversarialDelay, StarvePct: 20, FairnessBound: 500,
			DepartEvery: 400, MaxChurn: 10,
		}},
		Seed: 4, MaxSteps: 60_000}},
	{"stabilize.clustered-crash-depart", "stabilize", Job{
		Protocol: "stabilize",
		Params: Params{Table: "line", N: 40, Fault: &sched.Profile{
			Scheduler:  sched.KindClustered,
			CrashEvery: 300, MaxCrashes: 6, RecoverEvery: 600,
			DepartEvery: 400, MaxChurn: 5,
		}},
		Seed: 2, MaxSteps: 200_000}},
	{"counting-upper-bound.urn.weighted-crash", "counting-upper-bound.urn", Job{
		Protocol: "counting-upper-bound", Engine: EngineUrn,
		Params: Params{N: 1000, Fault: &sched.Profile{
			Scheduler: sched.KindWeighted, Rates: []int64{1, 3},
			CrashEvery: 20_000, MaxCrashes: 30, RecoverEvery: 50_000,
		}},
		Seed: 2}},
}

// streamJobs lists every pinned run: each golden job under its file name,
// the profiled runs, and the pop and sim faultedSnapshotJobs entries (the
// n = 10^6 urn one is too large to snapshot on every tick).
func streamJobs() []streamJob {
	var out []streamJob
	for _, g := range goldenJobs {
		out = append(out, streamJob{g.file, g.file, g.job})
	}
	out = append(out, profiledStreamJobs...)
	for _, g := range faultedSnapshotJobs {
		switch g.name {
		case "pop.crash-freeze":
			out = append(out, streamJob{"counting-upper-bound.pop.crash-freeze", "counting-upper-bound.pop", g.job})
		case "sim.adversarial-churn":
			out = append(out, streamJob{"stabilize.adversarial-churn", "stabilize", g.job})
		}
	}
	return out
}

// TestStreamDigests pins every random draw of every golden job and of
// the profiled runs, which the goldens alone cannot: a Result records only
// what the run ended with, and a predicate-terminated run's step count is
// quantized to its check period. Each job runs with a Checkpoint hook that
// captures a snapshot at every Progress tick; the engine state of each one
// (RNG state, counters, the order of every sampling set, the scheduler
// layer's flags and fault clock) is hashed as canonical JSON, and the
// digests must equal the committed ones. A kernel change that draws one
// number differently, or samples one set in a different order, moves a
// digest. Regenerate only for an intended stream change, with
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
	jobs := streamJobs()
	got := make(map[string]streamDigest, len(jobs))
	for _, g := range jobs {
		decode, ok := streamMementos[g.memento]
		if !ok {
			t.Errorf("pinned job %s has no memento type in streamMementos", g.key)
			continue
		}
		t.Run(g.key, func(t *testing.T) {
			d := runStreamDigest(t, g.job, decode)
			got[g.key] = d
			if *update {
				return
			}
			if w, ok := want[g.key]; !ok {
				t.Errorf("no committed digest (run with -update to regenerate)")
			} else if d != w {
				t.Errorf("stream drifted:\ngot  %+v\nwant %+v", d, w)
			}
		})
	}
	if !*update {
		if len(want) != len(got) {
			t.Errorf("%s has %d entries, the pinned list %d", path, len(want), len(got))
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
	j.Metrics = obs.NewEngineMetrics(obs.NewRegistry(), "pinned")
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
	d.FaultEvents = j.Metrics.FaultEvents.Value()
	return d
}
