package check_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"shapesol/internal/check"
	"shapesol/internal/sched"
	"shapesol/internal/snap"
)

// midrunExplorer freezes an n=64 haltProto exploration mid-run: with 64
// reachable configurations and a CheckEvery of 16, the cancel lands
// strictly between the root and the final frontier.
func midrunExplorer(t testing.TB, cancelAt int64) (*check.Explorer[string], check.Result) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := check.New(64, haltProto{}, check.Options{
		CheckEvery: 16,
		Progress: func(expanded int64) {
			if expanded >= cancelAt {
				cancel()
			}
		},
	})
	res := e.RunContext(ctx)
	return e, res
}

func TestMementoResumeByteIdentical(t *testing.T) {
	// Freeze an exploration strictly mid-run.
	a, res := midrunExplorer(t, 16)
	if res.Reason != check.ReasonCanceled {
		t.Fatalf("reason = %v, want canceled (mid-run)", res.Reason)
	}
	if a.Complete() {
		t.Fatalf("exploration completed before the freeze; enlarge the space")
	}

	// Round-trip the memento through the snapshot codec, as the job layer
	// does.
	m := a.Memento()
	blob, err := snap.EncodeState(m)
	if err != nil {
		t.Fatalf("EncodeState: %v", err)
	}
	var m2 check.Memento[string]
	if err := snap.DecodeState(blob, &m2); err != nil {
		t.Fatalf("DecodeState: %v", err)
	}

	b := check.New(64, haltProto{}, check.Options{CheckEvery: 16})
	if err := b.RestoreMemento(m2); err != nil {
		t.Fatalf("RestoreMemento: %v", err)
	}
	if b.Expanded() != a.Expanded() || b.Configs() != a.Configs() {
		t.Fatalf("restored cursor %d/%d, want %d/%d", b.Expanded(), b.Configs(), a.Expanded(), a.Configs())
	}

	// Drive both the original and the restored exploration to completion:
	// results, verdicts and the final serialized state must be identical.
	resA, resB := a.Run(), b.Run()
	if resA != resB {
		t.Fatalf("results diverged: %+v vs %+v", resA, resB)
	}
	if resA.Reason != check.ReasonExplored {
		t.Fatalf("resumed run did not complete: %+v", resA)
	}
	vA, vB := a.Verdict(nil), b.Verdict(nil)
	if !reflect.DeepEqual(vA, vB) {
		t.Fatalf("verdicts diverged:\n%+v\n%+v", vA, vB)
	}
	finalA, err := snap.EncodeState(a.Memento())
	if err != nil {
		t.Fatalf("EncodeState(final a): %v", err)
	}
	finalB, err := snap.EncodeState(b.Memento())
	if err != nil {
		t.Fatalf("EncodeState(final b): %v", err)
	}
	if !bytes.Equal(finalA, finalB) {
		t.Fatalf("final exploration states are not byte-identical (%d vs %d bytes)", len(finalA), len(finalB))
	}
}

func TestRestoreMementoValidation(t *testing.T) {
	a, _ := midrunExplorer(t, 16)
	m := a.Memento()

	// Population mismatch.
	if err := check.New(32, haltProto{}, check.Options{}).RestoreMemento(m); err == nil {
		t.Fatalf("restore into a different population accepted")
	}

	// Profile-presence mismatch: the veto set shapes the graph, so a
	// profile-less memento must not restore into a profiled explorer.
	p := check.New(64, haltProto{}, check.Options{})
	if err := p.ApplyProfile(sched.Profile{Scheduler: sched.KindAdversarialDelay, StarvePct: 50}); err != nil {
		t.Fatalf("ApplyProfile: %v", err)
	}
	if err := p.RestoreMemento(m); err == nil {
		t.Fatalf("profile-less memento restored into a profiled explorer")
	}
}

// TestRestoreMementoRejectsCraftedColumns is the regression test for a
// crafted snapshot whose NodeLen {MaxInt32, MaxInt32, 2} wrapped an int32
// sum to 0: its empty slot columns passed the consistency check, and
// restore allocated 2^31 slots, a fatal out-of-memory error that no
// recover can catch. The other cases would index out of range (short
// columns, negative ids) or loop forever (a parent cycle) later on.
func TestRestoreMementoRejectsCraftedColumns(t *testing.T) {
	a, _ := midrunExplorer(t, 16)
	for name, corrupt := range map[string]func(m *check.Memento[string]){
		"wrapping slot counts": func(m *check.Memento[string]) {
			m.NodeLen = []int32{math.MaxInt32, math.MaxInt32, 2}
			m.SlotState, m.SlotClass, m.SlotCount = nil, nil, nil
			m.Parent = []int32{-1, 0, 1}
			m.ViaA, m.ViaB, m.ViaNA, m.ViaNB = make([]int32, 3), make([]int32, 3), make([]int32, 3), make([]int32, 3)
			m.Head = 0
		},
		"no nodes": func(m *check.Memento[string]) {
			m.NodeLen, m.SlotState, m.SlotClass, m.SlotCount = nil, nil, nil, nil
			m.Parent, m.ViaA, m.ViaB, m.ViaNA, m.ViaNB = nil, nil, nil, nil, nil
			m.Head = 0
		},
		"negative slot count": func(m *check.Memento[string]) { m.NodeLen[0] = -1 },
		"negative head":       func(m *check.Memento[string]) { m.Head = -1 },
		"short parent column": func(m *check.Memento[string]) { m.Parent = m.Parent[1:] },
		"short via column":    func(m *check.Memento[string]) { m.ViaNB = m.ViaNB[1:] },
		"parent cycle":        func(m *check.Memento[string]) { m.Parent[1] = 1 },
		"second root":         func(m *check.Memento[string]) { m.Parent[1] = -1 },
		"unknown edge state":  func(m *check.Memento[string]) { m.ViaA[1] = int32(len(m.States)) },
		"negative state id":   func(m *check.Memento[string]) { m.SlotState[0] = -1 },
	} {
		m := a.Memento()
		corrupt(&m)
		if err := check.New(64, haltProto{}, check.Options{}).RestoreMemento(m); err == nil {
			t.Errorf("%s: restore accepted the memento", name)
		}
	}
	if err := check.New(64, haltProto{}, check.Options{}).RestoreMemento(a.Memento()); err != nil {
		t.Fatalf("intact memento rejected: %v", err)
	}
}

// TestVerdictMakesNoClaimOnForgedFrontier restores a fresh explorer's
// memento with its head moved past the root: the root counts as expanded,
// but none of its successors was discovered, so the exploration reads as
// complete while its graph is not closed. Verdict panicked on the missing
// successor; it must make no claim instead.
func TestVerdictMakesNoClaimOnForgedFrontier(t *testing.T) {
	m := check.New(64, haltProto{}, check.Options{}).Memento()
	m.Head = int32(len(m.NodeLen))
	e := check.New(64, haltProto{}, check.Options{})
	if err := e.RestoreMemento(m); err != nil {
		t.Fatal(err)
	}
	if res := e.Run(); res.Reason != check.ReasonExplored {
		t.Fatalf("reason = %v, want explored (nothing left past the head)", res.Reason)
	}
	if v := e.Verdict(nil); v.Complete || v.Halts {
		t.Fatalf("verdict %+v claims a result for an unclosed graph", v)
	}
}

// FuzzCheckRestore feeds hostile exploration state to RestoreMemento, as
// the daemon does when it resumes an uploaded snapshot: the gob payload of
// a captured memento (one of a fresh explorer, one frozen mid-search),
// mutated. RestoreMemento must either return an error or leave an
// explorer that runs to the end of a MaxStates budget and returns a
// Verdict without panicking.
func FuzzCheckRestore(f *testing.F) {
	mid, _ := midrunExplorer(f, 16)
	for _, e := range []*check.Explorer[string]{check.New(64, haltProto{}, check.Options{}), mid} {
		data, err := snap.EncodeState(e.Memento())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m check.Memento[string]
		if snap.DecodeState(data, &m) != nil {
			return
		}
		e := check.New(64, haltProto{}, check.Options{CheckEvery: 16, MaxStates: 4096})
		if e.RestoreMemento(m) != nil {
			return
		}
		e.Run()
		e.Verdict(nil)
	})
}
