package shapesol

import (
	"context"
	"strings"
	"testing"

	"shapesol/internal/grid"
)

// TestFacadeRun drives one job per payload type through Run, and checks
// that unknown language and table names are rejected as invalid jobs.
func TestFacadeRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		job  Job
		ok   func(t *testing.T, res Result) // nil: the job must be rejected
	}{
		{"count", Job{Protocol: "counting-upper-bound", Params: Params{N: 60, B: 4}, Seed: 1},
			func(t *testing.T, res Result) {
				if out := res.Payload.(CountOutcome); out.R0 == 0 || !out.Success {
					t.Fatalf("count outcome: %+v", out)
				}
			}},
		{"count-line", Job{Protocol: "count-line", Params: Params{N: 16, B: 3}, Seed: 2},
			func(t *testing.T, res Result) {
				if out := res.Payload.(CountLineOutcome); !out.Halted || out.R0 <= 0 {
					t.Fatalf("count-on-line outcome: %+v", out)
				}
			}},
		{"square", Job{Protocol: "square-knowing-n", Params: Params{N: 9, D: 3}, Seed: 3},
			func(t *testing.T, res Result) {
				if out := res.Payload.(SquareOutcome); !out.Halted || !out.Square {
					t.Fatalf("square outcome: %+v", out)
				}
			}},
		{"universal", Job{Protocol: "universal", Params: Params{Lang: "star", D: 5}, Seed: 4},
			func(t *testing.T, res Result) {
				if out := res.Payload.(UniversalOutcome); !out.Halted || !out.Match {
					t.Fatalf("construct outcome: %v", out)
				}
			}},
		{"universal-unknown-language", Job{Protocol: "universal", Params: Params{Lang: "nope", D: 5}, Seed: 4}, nil},
		{"replication", Job{Protocol: "replication", Params: Params{Shape: grid.ShapeOf(grid.Pos{}, grid.Pos{X: 1}), Free: 4}, Seed: 5},
			func(t *testing.T, res Result) {
				if out := res.Payload.(ReplicationOutcome); out.Copies != 2 {
					t.Fatalf("replicate: %+v", out)
				}
			}},
		{"stabilize", Job{Protocol: "stabilize", Params: Params{Table: "square", N: 9}, Seed: 6},
			func(t *testing.T, res Result) {
				s := res.Payload.(StabilizeOutcome).Shape
				if h, v, _ := s.Dims(); h != 3 || v != 3 {
					t.Fatalf("dims %dx%d", h, v)
				}
				if got := Render(s); !strings.Contains(got, "###") {
					t.Fatalf("render:\n%s", got)
				}
			}},
		{"stabilize-unknown-table", Job{Protocol: "stabilize", Params: Params{Table: "bogus", N: 4}, Seed: 1}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), tc.job)
			if tc.ok == nil {
				if err == nil {
					t.Fatalf("invalid job accepted: %+v", res)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.ok(t, res)
		})
	}
}

func TestFacadeLanguages(t *testing.T) {
	if len(Languages()) < 5 {
		t.Fatalf("languages: %v", Languages())
	}
}
