package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// claims holds one predicate per experiment: the paper's claim, stated
// over the experiment's report. The same predicates check the committed
// EXPERIMENTS.json and a reduced run of the registry, so they must hold at
// 2 trials as well as at the artifact's 20.
var claims = map[string]func(Report) error{
	"E1": func(r Report) error {
		if err := allFlags(r); err != nil {
			return err
		}
		for _, row := range r.Rows {
			if m := row.Agg.Means["r0_over_n"]; m < 0.5 {
				return fmt.Errorf("%s: mean r0/n = %v, want >= 0.5", row.Label, m)
			}
		}
		return nil
	},
	"E2": slopeIn(2.0, 2.3),
	"E3": func(r Report) error {
		b2, err := rowNamed(r, "n=6 b=2")
		if err != nil {
			return err
		}
		b3, err := rowNamed(r, "n=6 b=3")
		if err != nil {
			return err
		}
		if b3.Agg.Steps.Mean <= b2.Agg.Steps.Mean {
			return fmt.Errorf("n=6: mean steps b=3 %v <= b=2 %v, want higher", b3.Agg.Steps.Mean, b2.Agg.Steps.Mean)
		}
		e2, e3 := b2.Agg.Rates["exact"], b3.Agg.Rates["exact"]
		if e3.Trials == 0 || e3.P < e2.P {
			return fmt.Errorf("n=6: exact rate b=3 %v < b=2 %v", e3.P, e2.P)
		}
		return nil
	},
	"E4":  allFlags,
	"E7":  allFlags,
	"E8":  allFlags,
	"E9":  allFlags,
	"E10": allFlags,
	"E11": func(r Report) error {
		for i := 1; i < len(r.Rows); i++ {
			prev, cur := r.Rows[i-1], r.Rows[i]
			if cur.Agg.Steps.Mean <= prev.Agg.Steps.Mean {
				return fmt.Errorf("mean steps %s %v <= %s %v, want a strict rise with k",
					cur.Label, cur.Agg.Steps.Mean, prev.Label, prev.Agg.Steps.Mean)
			}
		}
		return nil
	},
	"E12": allFlags,
	"E13": func(r Report) error {
		for _, row := range r.Rows {
			if p := row.Agg.Rates["early"]; p.Trials == 0 || p.P < 0.5 {
				return fmt.Errorf("%s: early-termination rate %v, want >= 0.5", row.Label, p.P)
			}
		}
		return nil
	},
	"E14": both(slopeIn(2.0, 2.3), allFlags),
	"E15": both(slopeIn(2.0, 2.3), allFlags),
	"E16": func(r Report) error {
		for _, label := range []string{"uniform", "weighted 1:8", "clustered", "starve leader"} {
			if err := rowRates(r, label, map[string]float64{"halted": 1, "success": 1}); err != nil {
				return err
			}
		}
		return rowRates(r, "starve 25%", map[string]float64{"halted": 0})
	},
	"E17": func(r Report) error {
		if err := rowRates(r, "no faults", map[string]float64{"halted": 1}); err != nil {
			return err
		}
		for i := 1; i < len(r.Rows); i++ {
			prev, cur := r.Rows[i-1].Agg.Rates["halted"], r.Rows[i].Agg.Rates["halted"]
			if cur.P > prev.P {
				return fmt.Errorf("%s: halted rate %v rose from %v as the gap shrank", r.Rows[i].Label, cur.P, prev.P)
			}
		}
		gap, err := rowNamed(r, "gap=1e+08")
		if err != nil {
			return err
		}
		if p := gap.Agg.Rates["halted"]; p.Trials == 0 || p.P >= 1 {
			return fmt.Errorf("gap=1e+08: halted rate %v, want < 1", p.P)
		}
		return nil
	},
	"E18": func(r Report) error {
		if err := allFlags(r); err != nil {
			return err
		}
		for _, row := range r.Rows {
			n, b := row.Params["n"], row.Params["b"]
			if want := float64(2*n - 1 - min(b, n-1)); row.Agg.Means["max_depth"] != want {
				return fmt.Errorf("%s: max_depth %v, want 2n-1-min(b,n-1) = %v", row.Label, row.Agg.Means["max_depth"], want)
			}
		}
		return nil
	},
	"E19": func(r Report) error {
		for _, label := range []string{"uniform", "starve leader"} {
			if err := rowRates(r, label, map[string]float64{"halts": 1}); err != nil {
				return err
			}
		}
		return rowRates(r, "starve 25%", map[string]float64{"halts": 0, "frozen_witness": 1})
	},
}

// allFlags requires every flag of every row to hold on every trial.
func allFlags(r Report) error {
	for _, row := range r.Rows {
		if len(row.Agg.Rates) == 0 {
			return fmt.Errorf("%s: no flags recorded", row.Label)
		}
		for flag, rate := range row.Agg.Rates {
			if rate.Trials == 0 || rate.Successes != rate.Trials {
				return fmt.Errorf("%s: %s in %d of %d trials, want all", row.Label, flag, rate.Successes, rate.Trials)
			}
		}
	}
	return nil
}

// slopeIn requires the derived log-log slope of steps against n to lie in
// [lo, hi]. The local slope of n^2 log n is 2.06-2.21 over the measured
// ranges of n.
func slopeIn(lo, hi float64) func(Report) error {
	return func(r Report) error {
		s, ok := r.Derived["loglog_slope"]
		if !ok || s < lo || s > hi {
			return fmt.Errorf("loglog_slope = %v (present %v), want in [%v, %v]", s, ok, lo, hi)
		}
		return nil
	}
}

func both(a, b func(Report) error) func(Report) error {
	return func(r Report) error {
		if err := a(r); err != nil {
			return err
		}
		return b(r)
	}
}

func rowNamed(r Report, label string) (Row, error) {
	for _, row := range r.Rows {
		if row.Label == label {
			return row, nil
		}
	}
	return Row{}, fmt.Errorf("no row %q", label)
}

// rowRates requires the named row's flags to hold at exactly the given
// rates.
func rowRates(r Report, label string, want map[string]float64) error {
	row, err := rowNamed(r, label)
	if err != nil {
		return err
	}
	for flag, p := range want {
		rate, ok := row.Agg.Rates[flag]
		if !ok || rate.Trials == 0 || rate.P != p {
			return fmt.Errorf("%s: %s in %d of %d trials, want rate %v", label, flag, rate.Successes, rate.Trials, p)
		}
	}
	return nil
}

// checkClaims applies every predicate to its report, and requires a
// report for each of the wanted ids.
func checkClaims(t *testing.T, reports []Report, want []string) {
	t.Helper()
	byID := make(map[string]Report, len(reports))
	for _, r := range reports {
		byID[r.ID] = r
	}
	for _, id := range want {
		r, ok := byID[id]
		if !ok {
			t.Errorf("%s: no report", id)
			continue
		}
		claim, ok := claims[id]
		if !ok {
			t.Errorf("%s: no claim predicate", id)
			continue
		}
		if err := claim(r); err != nil {
			t.Errorf("%s: claim fails: %v", id, err)
		}
	}
}

// TestClaimsCoverRegistry: every experiment states its claim, and every
// claim belongs to an experiment.
func TestClaimsCoverRegistry(t *testing.T) {
	for _, e := range All() {
		if _, ok := claims[e.ID]; !ok {
			t.Errorf("%s has no claim predicate", e.ID)
		}
	}
	for id := range claims {
		if _, ok := Lookup(id); !ok {
			t.Errorf("claim predicate for unknown experiment %s", id)
		}
	}
}

// TestClaimsOnArtifact checks every claim on the committed output of
// `go run ./cmd/experiments -json -parallel`, without running anything.
func TestClaimsOnArtifact(t *testing.T) {
	data, err := os.ReadFile("../../EXPERIMENTS.json")
	if err != nil {
		t.Fatal(err)
	}
	var reports []Report
	if err := json.Unmarshal(data, &reports); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	checkClaims(t, reports, ids)
}

// TestClaimsReduced runs every experiment at 2 trials and checks the same
// claims, so a change that breaks one fails here even when no golden
// covers it. E15 is left to the artifact: its n = 10^8 row alone takes
// about a minute. E11 runs at the artifact's 20 trials: its claim is a
// strict rise of mean steps with k, over a step law whose standard
// deviation is close to its mean, and at 2 trials it fails on about a
// third of seed bases under either sim draw, per step or skipping.
func TestClaimsReduced(t *testing.T) {
	var reports []Report
	var ids []string
	for _, e := range All() {
		if e.ID == "E15" {
			continue
		}
		trials := 2
		if e.ID == "E11" {
			trials = 20
		}
		r, err := e.Run(context.Background(), 0, trials, 0)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
		ids = append(ids, e.ID)
	}
	checkClaims(t, reports, ids)
}
