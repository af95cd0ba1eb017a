package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"shapesol/internal/job"
)

// The durability layer of the daemon. A -data-dir holds two things:
//
//   - journal.ndjson — an append-only journal of job admissions ("submit"
//     records, the normalized Job) and settlements ("result" records, the
//     terminal Status fields with the Result envelope's payload kept as
//     raw JSON so replayed results serve byte-identical bytes). Replay is
//     order-insensitive per id, so concurrent appends from workers and
//     the submit handler need no coordination beyond the file lock. A
//     torn final line (the kill -9 case) is skipped.
//
//   - checkpoints/<id>.snap — the latest snapshot of each *running* job,
//     written atomically (tmp + rename) on the engines' Progress cadence,
//     throttled by Config.CheckpointEvery. A checkpoint is deleted when
//     its job settles with a journaled result; a job that was interrupted
//     (crash, or cancellation by a draining shutdown — not by a user
//     DELETE) keeps its checkpoint and is re-enqueued from it at the next
//     boot.
type persister struct {
	dir string

	mu      sync.Mutex
	journal *os.File

	// observeFsync/observeCheckpoint, when set, time the durability
	// syscalls for the metrics registry (see metrics.go).
	observeFsync      func(seconds float64)
	observeCheckpoint func(seconds float64)
}

// journalRecord is one line of journal.ndjson. Type is "submit",
// "result", or "event"; submit records carry Job, result records the
// terminal fields, event records a lifecycle trace event (replay of an
// older journal ignores them, and older builds ignore event lines —
// the replay switch drops unknown types).
type journalRecord struct {
	Type  string          `json:"type"`
	ID    string          `json:"id"`
	Job   *job.Job        `json:"job,omitempty"`
	State State           `json:"state,omitempty"`
	Error string          `json:"error,omitempty"`
	Res   json.RawMessage `json:"result,omitempty"`
	Event *TraceEvent     `json:"event,omitempty"`
}

func openPersister(dir string) (*persister, error) {
	if err := os.MkdirAll(filepath.Join(dir, "checkpoints"), 0o755); err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "journal.ndjson"), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: open journal: %w", err)
	}
	return &persister{dir: dir, journal: f}, nil
}

func (p *persister) close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.journal.Close() //nolint:errcheck // append-only handle; appends are already synced
}

// append writes one journal line and syncs it to disk — journal records
// are rare (one per admission, one per settlement) and must survive a
// kill -9 the instant the caller observes them.
func (p *persister) append(rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := p.journal.Write(data); err != nil {
		return err
	}
	t0 := time.Now()
	err = p.journal.Sync()
	if p.observeFsync != nil {
		p.observeFsync(time.Since(t0).Seconds())
	}
	return err
}

// appendNoSync writes one journal line without fsyncing — for trace
// events, which ride the journal's ordering but must not add fsyncs to
// the serving path. The next synced append (or the OS) flushes them.
func (p *persister) appendNoSync(rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err = p.journal.Write(data)
	return err
}

// appendEvent journals one lifecycle trace event.
func (p *persister) appendEvent(id string, ev TraceEvent) error {
	return p.appendNoSync(journalRecord{Type: "event", ID: id, Event: &ev})
}

func (p *persister) appendSubmit(id string, j job.Job) error {
	jj := j // strip the non-serializable hooks from the journaled form
	jj.Progress, jj.Checkpoint, jj.Restore, jj.Metrics = nil, nil, nil, nil
	return p.append(journalRecord{Type: "submit", ID: id, Job: &jj})
}

func (p *persister) appendResult(id string, state State, errMsg string, res *job.Result) error {
	rec := journalRecord{Type: "result", ID: id, State: state, Error: errMsg}
	if res != nil {
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		rec.Res = data
	}
	return p.append(rec)
}

// checkpointPath returns the snapshot file of one job.
func (p *persister) checkpointPath(id string) string {
	return filepath.Join(p.dir, "checkpoints", id+".snap")
}

// writeCheckpoint atomically replaces the job's snapshot file.
func (p *persister) writeCheckpoint(id string, data []byte) error {
	t0 := time.Now()
	path := p.checkpointPath(id)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	err := os.Rename(tmp, path)
	if err == nil && p.observeCheckpoint != nil {
		p.observeCheckpoint(time.Since(t0).Seconds())
	}
	return err
}

// readCheckpoint returns the job's snapshot bytes; fs.ErrNotExist when it
// has none.
func (p *persister) readCheckpoint(id string) ([]byte, error) {
	return os.ReadFile(p.checkpointPath(id))
}

func (p *persister) removeCheckpoint(id string) {
	// Best effort: a checkpoint that survives here is reaped at next boot.
	os.Remove(p.checkpointPath(id)) //nolint:errcheck
}

// replayedJob is one job reconstructed from the journal: its normalized
// Job plus, when it settled, the terminal fields.
type replayedJob struct {
	id       string
	job      job.Job
	terminal bool
	state    State
	errMsg   string
	result   *job.Result
	events   []TraceEvent
}

// replay folds the journal into per-id job records, in admission order.
// Records are matched by id, so result-before-submit interleavings are
// handled: a worker that settles a fast job can append its result line
// before the submit handler appends the admission (the two appenders
// share only the file lock), so early results are buffered and attached
// when their submit record arrives. Duplicate results (first wins) are
// tolerated; a torn trailing line is skipped.
func (p *persister) replay() ([]replayedJob, int64, error) {
	if _, err := p.journal.Seek(0, 0); err != nil {
		return nil, 0, err
	}
	byID := make(map[string]*replayedJob)
	early := make(map[string]journalRecord)      // results seen before their submit
	earlyEvents := make(map[string][]TraceEvent) // trace events seen before their submit
	var order []string
	var maxSeq int64
	applyResult := func(r *replayedJob, rec journalRecord) error {
		if r.terminal {
			return nil
		}
		r.terminal = true
		r.state = rec.State
		r.errMsg = rec.Error
		if len(rec.Res) > 0 {
			res, err := decodeReplayedResult(rec.Res)
			if err != nil {
				return fmt.Errorf("server: journal result %s: %w", rec.ID, err)
			}
			r.result = res
		}
		return nil
	}
	sc := bufio.NewScanner(p.journal)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn write can only be the final line; anything after a
			// parse failure is untrustworthy.
			break
		}
		if seq, ok := idSeq(rec.ID); ok && seq > maxSeq {
			maxSeq = seq
		}
		switch rec.Type {
		case "submit":
			if rec.Job == nil || byID[rec.ID] != nil {
				continue
			}
			r := &replayedJob{id: rec.ID, job: *rec.Job}
			byID[rec.ID] = r
			order = append(order, rec.ID)
			if evs, ok := earlyEvents[rec.ID]; ok {
				delete(earlyEvents, rec.ID)
				r.events = append(r.events, evs...)
			}
			if rec, ok := early[rec.ID]; ok {
				delete(early, rec.ID)
				if err := applyResult(r, rec); err != nil {
					return nil, 0, err
				}
			}
		case "event":
			if rec.Event == nil {
				continue
			}
			if r, ok := byID[rec.ID]; ok {
				r.events = append(r.events, *rec.Event)
			} else {
				earlyEvents[rec.ID] = append(earlyEvents[rec.ID], *rec.Event)
			}
		case "result":
			r, ok := byID[rec.ID]
			if !ok {
				if _, dup := early[rec.ID]; !dup {
					early[rec.ID] = rec
				}
				continue
			}
			if err := applyResult(r, rec); err != nil {
				return nil, 0, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if _, err := p.journal.Seek(0, 2); err != nil { // back to append position
		return nil, 0, err
	}
	out := make([]replayedJob, 0, len(order))
	for _, id := range order {
		r := byID[id]
		// The submit handler journals a job's admission events after
		// handing it to the pool, so a fast job's running and settled
		// lines can precede them; timestamps carry the true order.
		slices.SortStableFunc(r.events, func(a, b TraceEvent) int { return a.TS.Compare(b.TS) })
		out = append(out, *r)
	}
	return out, maxSeq, nil
}

// decodeReplayedResult rebuilds a Result envelope from its journaled
// JSON, keeping the protocol payload as raw bytes: a decode through a
// generic map would reorder the payload's fields, and the daemon's
// /result contract is byte-identity with the golden envelopes.
func decodeReplayedResult(data json.RawMessage) (*job.Result, error) {
	var res job.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	var shell struct {
		Payload json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(data, &shell); err != nil {
		return nil, err
	}
	if len(shell.Payload) > 0 {
		res.Payload = shell.Payload
	} else {
		res.Payload = nil
	}
	return &res, nil
}

// idSeq extracts the numeric suffix of a jN id, so a rebooted store
// continues the id sequence past everything journaled.
func idSeq(id string) (int64, bool) {
	if !strings.HasPrefix(id, "j") {
		return 0, false
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
