package core

import (
	"context"
	"testing"

	"shapesol/internal/shapes"
	"shapesol/internal/tm"
)

func TestUniversalOracleAllLanguages(t *testing.T) {
	for _, lang := range shapes.All() {
		for _, d := range []int{2, 4, 5} {
			w, err := NewUniversalWorld(&Universal{D: d, Lang: lang}, int64(d)*31, 50_000_000, nil)
			if err != nil {
				t.Fatal(err)
			}
			out := UniversalOutcomeOf(context.Background(), lang, d, w, w.Run())
			if !out.Halted {
				t.Fatalf("%s d=%d: token did not halt (%v)", lang.Name(), d, out)
			}
			if !out.Match {
				t.Fatalf("%s d=%d: shape mismatch (%v)", lang.Name(), d, out)
			}
			want := shapes.Render(lang, d).Waste()
			if out.Waste != want {
				t.Fatalf("%s d=%d: waste %d, want %d", lang.Name(), d, out.Waste, want)
			}
		}
	}
	// The 1x1 square has no pair to schedule; the universal spec answers
	// d=1 without a world.
	if _, err := NewUniversalWorld(&Universal{D: 1, Lang: shapes.Star()}, 1, 1000, nil); err == nil {
		t.Fatal("d=1 should be rejected: no interaction to schedule")
	}
}

func TestUniversalWorstCaseWaste(t *testing.T) {
	// Theorem 4: a line of length d wastes (d-1)d.
	const d = 6
	w, err := NewUniversalWorld(&Universal{D: d, Lang: shapes.BottomRow()}, 9, 50_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := UniversalOutcomeOf(context.Background(), shapes.BottomRow(), d, w, w.Run())
	if !out.Match || out.Waste != (d-1)*d {
		t.Fatalf("outcome %v, want waste %d", out, (d-1)*d)
	}
}

func TestUniversalMicroStepTM(t *testing.T) {
	// The fully faithful mode: a genuine TM decides pixels on the embedded
	// tape. BottomRowMachine realizes the spanning-line language. d >= 4 is
	// required for the binary input to fit on the square tape.
	m := tm.BottomRowMachine()
	w, err := NewUniversalWorld(&Universal{D: 4, Machine: m}, 7, 400_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := UniversalOutcomeOf(context.Background(), m, 4, w, w.Run())
	if !out.Halted || !out.Match {
		t.Fatalf("microstep d=4: %v", out)
	}
	if _, err := NewUniversalWorld(&Universal{D: 2, Machine: tm.BottomRowMachine()}, 1, 1000, nil); err == nil {
		t.Fatal("d=2 should be rejected: input exceeds the tape")
	}
}

func TestUniversalPattern(t *testing.T) {
	// Remark 4: patterns color the square and skip the release phase.
	d := 4
	proto := &Universal{D: d, Pattern: shapes.Checker()}
	w, err := NewUniversalWorld(proto, 3, 50_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if w.HaltedCount() == 0 {
		t.Fatalf("pattern run did not halt: %+v", res)
	}
	// The square must remain whole: d*d nodes in one component.
	if _, size := w.LargestComponent(); size != d*d {
		t.Fatalf("pattern square broke apart: largest=%d", size)
	}
	// Every pixel colored per the pattern.
	want := shapes.RenderPattern(shapes.Checker(), d)
	for id := 0; id < d*d; id++ {
		c := w.State(id)
		if !c.Decided || c.Color != want.At(id) {
			t.Fatalf("pixel %d: decided=%v color=%d want %d", id, c.Decided, c.Color, want.At(id))
		}
	}
}
