package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"shapesol/internal/job"
)

// State is the lifecycle phase of a submitted job.
type State string

// The job lifecycle: queued -> running -> done | failed, with canceled
// reachable from queued (DELETE or drain before a worker picks the job
// up) and from running (DELETE or drain mid-run, via the engines'
// context plumbing — the Result then carries Reason == "canceled").
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Status is the wire form of one job's current state: the envelope the
// daemon wraps around the (unchanged, golden-pinned) job.Result. Result
// is set once the job is terminal; Steps tracks live progress before
// that.
type Status struct {
	ID       string     `json:"id"`
	Protocol string     `json:"protocol"`
	Engine   job.Engine `json:"engine"`
	Seed     int64      `json:"seed"`
	State    State      `json:"state"`
	Cached   bool       `json:"cached,omitempty"`
	// Resumed marks a job whose execution continued from a snapshot: a
	// checkpoint recovered at boot, or an explicit POST /v1/jobs/resume.
	Resumed bool        `json:"resumed,omitempty"`
	Steps   int64       `json:"steps,omitempty"`
	Error   string      `json:"error,omitempty"`
	Result  *job.Result `json:"result,omitempty"`
}

// Frame is one line of the NDJSON event stream of GET
// /v1/jobs/{id}/events: progress frames while the job runs (on the
// engines' Progress cadence, throttled by the server's FrameInterval),
// then exactly one result frame carrying the terminal Status fields.
type Frame struct {
	Type   string      `json:"type"` // "progress" or "result"
	ID     string      `json:"id"`
	Steps  int64       `json:"steps"`
	State  State       `json:"state,omitempty"`
	Cached bool        `json:"cached,omitempty"`
	Error  string      `json:"error,omitempty"`
	Result *job.Result `json:"result,omitempty"`
}

// entry is the store's record of one submitted job.
type entry struct {
	id   string
	job  job.Job   // normalized: engine, budget and param defaults resolved
	spec *job.Spec // resolved at admission, so workers skip re-validation
	key  string    // canonical cache key of the normalized job

	steps atomic.Int64 // latest progress, written on the Progress cadence
	// userCanceled marks a DELETE-initiated cancellation, distinguishing
	// it from a draining shutdown: a user cancel settles the job for good
	// (journaled terminal), an interrupt leaves it resumable at next boot.
	userCanceled atomic.Bool

	mu     sync.Mutex
	state  State
	cached bool
	// trace is the job's lifecycle span events, in recording order
	// (see trace.go; replayed from the journal on a durable boot).
	trace []TraceEvent
	// resumed marks an execution continued from a snapshot.
	resumed bool
	errMsg  string
	result  *job.Result
	cancel  context.CancelFunc
	subs    map[chan Frame]struct{}
}

// withID names a new entry as the store admits it (Table.Add).
func (e *entry) withID(id string) *entry {
	e.id = id
	return e
}

// status snapshots the entry as its wire form.
func (e *entry) status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statusLocked()
}

func (e *entry) statusLocked() Status {
	st := Status{
		ID:       e.id,
		Protocol: e.job.Protocol,
		Engine:   e.job.Engine,
		Seed:     e.job.Seed,
		State:    e.state,
		Cached:   e.cached,
		Resumed:  e.resumed,
		Steps:    e.steps.Load(),
		Error:    e.errMsg,
		Result:   e.result,
	}
	if e.result != nil {
		st.Steps = e.result.Steps
	}
	return st
}

// ResultFrame renders a terminal Status as an event stream's final
// frame.
func (st Status) ResultFrame() Frame {
	return Frame{
		Type:   "result",
		ID:     st.ID,
		Steps:  st.Steps,
		State:  st.State,
		Cached: st.Cached,
		Error:  st.Error,
		Result: st.Result,
	}
}

// setCancel attaches the run context's cancel function.
func (e *entry) setCancel(cancel context.CancelFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cancel = cancel
}

// tryStart is the worker's queued -> running transition. It fails when a
// DELETE (or drain) settled the entry while it waited in the queue, in
// which case the worker must not run it.
func (e *entry) tryStart() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != StateQueued {
		return false
	}
	e.state = StateRunning
	return true
}

// cancelQueued settles a still-queued entry to canceled (no Result: the
// engine never ran) and reports whether it made the transition. The check
// and transition are one critical section, so it cannot race the worker's
// tryStart.
func (e *entry) cancelQueued(msg string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != StateQueued {
		return false
	}
	e.state = StateCanceled
	e.errMsg = msg
	for ch := range e.subs {
		close(ch)
	}
	e.subs = nil
	return true
}

// cancelRun cancels the run context (a no-op before setCancel or after
// the run finished — contexts tolerate double cancel).
func (e *entry) cancelRun() {
	e.mu.Lock()
	cancel := e.cancel
	e.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// subscribe registers a progress listener. The returned channel carries
// progress frames and is closed when the job reaches a terminal state
// (subscribing to a finished job returns an already-closed channel); the
// subscriber then reads the final Status itself via ResultFrame, so a
// slow consumer can drop progress frames but never the outcome.
func (e *entry) subscribe() chan Frame {
	ch := make(chan Frame, 16)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state.Terminal() {
		close(ch)
		return ch
	}
	if e.subs == nil {
		e.subs = make(map[chan Frame]struct{})
	}
	e.subs[ch] = struct{}{}
	return ch
}

// unsubscribe removes a listener that is going away before the job
// finished (client disconnect).
func (e *entry) unsubscribe(ch chan Frame) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.subs[ch]; ok {
		delete(e.subs, ch)
		close(ch)
	}
}

// publish fans a progress frame out to the live subscribers. Sends are
// non-blocking: a subscriber that is not draining (stalled HTTP write)
// misses frames instead of stalling the engine's progress callback.
func (e *entry) publish(f Frame) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for ch := range e.subs {
		select {
		case ch <- f:
		default:
		}
	}
}

// finish moves the entry to a terminal state and closes every
// subscription channel (the subscribers then read the final Status).
// It is a no-op if the entry is already terminal, so a DELETE racing the
// worker's own completion settles on whoever locked first.
func (e *entry) finish(state State, res *job.Result, errMsg string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state.Terminal() {
		return
	}
	e.state = state
	e.result = res
	e.errMsg = errMsg
	for ch := range e.subs {
		close(ch)
	}
	e.subs = nil
}

// Table is an in-memory, insertion-ordered job table keyed by id. Ids
// it issues are its prefix plus a sequence number (j1, j2, … on a
// daemon, c1, c2, … on a coordinator). Retention is bounded: once the
// table exceeds max items, the oldest *terminal* ones are evicted as new
// ones arrive (live jobs are never dropped), so a long-running process's
// memory is capped — an evicted id answers 404, like an id that never
// existed.
type Table[T any] struct {
	mu       sync.Mutex
	prefix   string
	seq      int64
	max      int
	terminal func(T) bool
	items    map[string]T
	order    []string // insertion order, for listing and eviction
}

// NewTable returns a table issuing ids prefix1, prefix2, … that evicts
// terminal items while it holds more than max (max < 1 evicts nothing);
// terminal reports whether an item may be evicted. It runs under the table lock, so it may take the
// item's own lock but must not call back into the table.
func NewTable[T any](prefix string, max int, terminal func(T) bool) *Table[T] {
	return &Table[T]{prefix: prefix, max: max, terminal: terminal, items: make(map[string]T)}
}

// Add retains the item newItem builds for a fresh id and returns it.
// newItem runs under the table lock, so ids enter the table in
// sequence; it must not call back into the table.
func (t *Table[T]) Add(newItem func(id string) T) T {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	id := fmt.Sprintf("%s%d", t.prefix, t.seq)
	v := newItem(id)
	t.putLocked(id, v)
	return v
}

// Put retains v under an id issued before (a daemon's journal replay;
// the caller keeps the sequence ahead of such ids via EnsureSeq).
func (t *Table[T]) Put(id string, v T) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.putLocked(id, v)
}

// EnsureSeq raises the id sequence to at least n.
func (t *Table[T]) EnsureSeq(n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n > t.seq {
		t.seq = n
	}
}

// putLocked inserts and then evicts oldest-first terminal items while
// the table is over its bound. A live item blocks nothing — eviction
// just skips past it.
func (t *Table[T]) putLocked(id string, v T) {
	t.items[id] = v
	t.order = append(t.order, id)
	if t.max < 1 || len(t.items) <= t.max {
		return
	}
	kept := t.order[:0]
	for i, have := range t.order {
		if len(t.items) > t.max && t.terminal(t.items[have]) {
			delete(t.items, have)
			continue
		}
		if len(t.items) <= t.max {
			kept = append(kept, t.order[i:]...)
			break
		}
		kept = append(kept, have)
	}
	t.order = kept
}

// Remove forgets an item whose id was never exposed as accepted (a shed
// or refused admission), so rejected load does not grow the table.
func (t *Table[T]) Remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.items[id]; !ok {
		return
	}
	delete(t.items, id)
	for i, have := range t.order {
		if have == id {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

// Get looks an item up by id.
func (t *Table[T]) Get(id string) (T, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.items[id]
	return v, ok
}

// Len returns the number of retained items.
func (t *Table[T]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.items)
}

// All snapshots the retained items in insertion order.
func (t *Table[T]) All() []T {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]T, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.items[id])
	}
	return out
}
