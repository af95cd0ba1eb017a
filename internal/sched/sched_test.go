package sched

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"shapesol/internal/wrand"
)

func TestNormalizeDefaults(t *testing.T) {
	p, err := Profile{}.Normalize(EnginePop, 100)
	if err != nil {
		t.Fatalf("zero profile: %v", err)
	}
	if p.Scheduler != KindUniform {
		t.Fatalf("scheduler = %q, want uniform", p.Scheduler)
	}
	if !p.IsZero() {
		t.Fatalf("normalized zero profile not IsZero")
	}

	p, err = Profile{Scheduler: KindClustered}.Normalize(EnginePop, 100)
	if err != nil {
		t.Fatalf("clustered: %v", err)
	}
	if p.BlockSize != 32 || p.BiasPct != 75 {
		t.Fatalf("clustered defaults = %d/%d, want 32/75", p.BlockSize, p.BiasPct)
	}

	p, err = Profile{Scheduler: KindAdversarialDelay}.Normalize(EngineSim, 100)
	if err != nil {
		t.Fatalf("adversarial: %v", err)
	}
	if p.StarvePct != 10 || p.FairnessBound != 1<<20 {
		t.Fatalf("adversarial defaults = %d/%d, want 10/%d", p.StarvePct, p.FairnessBound, 1<<20)
	}
}

func TestNormalizeEngineMatrix(t *testing.T) {
	cases := []struct {
		sched, engine string
		ok            bool
	}{
		{KindUniform, EngineUrn, true},
		{KindWeighted, EnginePop, true},
		{KindWeighted, EngineUrn, true},
		{KindWeighted, EngineSim, false},
		{KindClustered, EnginePop, true},
		{KindClustered, EngineSim, true},
		{KindClustered, EngineUrn, false},
		{KindAdversarialDelay, EnginePop, true},
		{KindAdversarialDelay, EngineSim, true},
		{KindAdversarialDelay, EngineUrn, false},
		{KindUniform, EngineCheck, true},
		{KindAdversarialDelay, EngineCheck, true},
		{KindWeighted, EngineCheck, false},
		{KindClustered, EngineCheck, false},
	}
	for _, c := range cases {
		p := Profile{Scheduler: c.sched}
		if c.sched == KindWeighted {
			p.Rates = []int64{1, 2}
		}
		_, err := p.Normalize(c.engine, 100)
		if (err == nil) != c.ok {
			t.Errorf("%s on %s: err=%v, want ok=%v", c.sched, c.engine, err, c.ok)
		}
		if err != nil {
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Errorf("%s on %s: error is %T, want *ValidationError", c.sched, c.engine, err)
			} else if verr.Fields[0].Field != "scheduler" {
				t.Errorf("%s on %s: field = %q, want scheduler", c.sched, c.engine, verr.Fields[0].Field)
			}
		}
	}
}

func TestNormalizeCheckEngineRejectsFaultClocks(t *testing.T) {
	// The check engine reasons about all executions at once; every enabled
	// fault clock must be rejected with its own field-level error.
	p := Profile{CrashEvery: 10, FreezeEvery: 5, ArriveEvery: 3}
	_, err := p.Normalize(EngineCheck, 100)
	if err == nil {
		t.Fatalf("fault clocks accepted on the check engine")
	}
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("error is %T, want *ValidationError", err)
	}
	got := make(map[string]bool)
	for _, f := range verr.Fields {
		got[f.Field] = true
	}
	for _, want := range []string{"arrive_every", "crash_every", "freeze_every"} {
		if !got[want] {
			t.Errorf("no field-level error for %s: %v", want, verr.Fields)
		}
	}
	// The same clocks are fine on the statistical engines.
	if _, err := p.Normalize(EnginePop, 100); err != nil {
		t.Fatalf("fault clocks rejected on pop: %v", err)
	}
}

func TestNormalizeFieldErrors(t *testing.T) {
	// Several invalid fields at once: all must be reported.
	p := Profile{
		Scheduler:    KindUniform,
		Rates:        []int64{5}, // forbidden without weighted
		BiasPct:      50,         // forbidden without clustered
		RecoverEvery: 100,        // requires crash_every
		MaxChurn:     3,          // requires churn rates
		FaultSeed:    7,          // requires a fault rate... recover_every counts
		CrashEvery:   -1,         // negative
	}
	_, err := p.Normalize(EnginePop, 100)
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("error is %T (%v), want *ValidationError", err, err)
	}
	want := map[string]bool{"rates": true, "bias_pct": true, "recover_every": true, "max_churn": true, "crash_every": true}
	got := map[string]bool{}
	for _, f := range verr.Fields {
		got[f.Field] = true
	}
	for f := range want {
		if !got[f] {
			t.Errorf("missing field error for %q in %v", f, verr)
		}
	}
	if !strings.Contains(verr.Error(), "crash_every") {
		t.Errorf("Error() = %q, want mention of crash_every", verr.Error())
	}
}

func TestNormalizeRateBounds(t *testing.T) {
	if _, err := (Profile{Scheduler: KindWeighted, Rates: []int64{0}}).Normalize(EnginePop, 10); err == nil {
		t.Fatal("rate 0 accepted")
	}
	if _, err := (Profile{Scheduler: KindWeighted, Rates: []int64{1001}}).Normalize(EnginePop, 10); err == nil {
		t.Fatal("rate 1001 accepted")
	}
	// Urn overflow bound: n * max rate must stay <= 3e9.
	if _, err := (Profile{Scheduler: KindWeighted, Rates: []int64{1000}}).Normalize(EngineUrn, 4_000_000); err == nil {
		t.Fatal("urn overflow-bound profile accepted")
	}
	if _, err := (Profile{Scheduler: KindWeighted, Rates: []int64{1000}}).Normalize(EnginePop, 4_000_000); err != nil {
		t.Fatalf("pop has no mass bound: %v", err)
	}
}

func TestSchemaCoversWireFields(t *testing.T) {
	names := map[string]bool{}
	for _, f := range Schema() {
		names[f.Name] = true
	}
	for _, want := range []string{
		"scheduler", "rates", "block_size", "bias_pct", "starve_pct",
		"fairness_bound", "fault_seed", "crash_every", "max_crashes",
		"recover_every", "freeze_every", "thaw_every", "arrive_every",
		"depart_every", "max_churn",
	} {
		if !names[want] {
			t.Errorf("Schema() missing field %q", want)
		}
	}
}

func TestClockDeterminismAndResume(t *testing.T) {
	p, err := Profile{CrashEvery: 50, RecoverEvery: 80, ArriveEvery: 120, MaxChurn: 5}.Normalize(EnginePop, 100)
	if err != nil {
		t.Fatal(err)
	}
	run := func(c *Clock, from, to int64) []string {
		var out []string
		for step := from; step <= to; step += 16 {
			for {
				ev, ok := c.NextDue(step)
				if !ok {
					break
				}
				out = append(out, ev.String())
			}
		}
		return out
	}
	c1 := NewClock(p, 42)
	full := run(c1, 0, 4096)

	c2 := NewClock(p, 42)
	head := run(c2, 0, 2048)
	state := c2.State()
	c3 := NewClock(p, 42)
	if err := c3.SetState(state, 2048); err != nil {
		t.Fatal(err)
	}
	tail := run(c3, 2064, 4096)
	resumed := append(head, tail...)

	if len(full) != len(resumed) {
		t.Fatalf("event counts differ: full %d, resumed %d", len(full), len(resumed))
	}
	for i := range full {
		if full[i] != resumed[i] {
			t.Fatalf("event %d differs: full %s, resumed %s", i, full[i], resumed[i])
		}
	}
}

// TestClockStateValidationAndBacklog checks that SetState rejects clock
// states the profile cannot produce — a disabled lane scheduled (it would
// fire on every step once due), a lane firing before step 1, or a lane
// lagging the restored step by more than maxBacklog mean gaps — and that
// Backlog counts the mean gaps the most overdue lane lags behind a step.
func TestClockStateValidationAndBacklog(t *testing.T) {
	p := Profile{CrashEvery: 100}
	st := NewClock(p, 1).State()
	for name, corrupt := range map[string]func(s *ClockState){
		"disabled lane scheduled": func(s *ClockState) { s.Next[EvArrive] = 50 },
		"lane before step 1":      func(s *ClockState) { s.Next[EvCrash] = 0 },
	} {
		bad := st
		corrupt(&bad)
		if err := NewClock(p, 1).SetState(bad, 0); err == nil {
			t.Errorf("%s: SetState accepted %+v", name, bad)
		}
	}
	next := st.Next[EvCrash]
	if err := NewClock(p, 1).SetState(st, next+maxBacklog*100); err != nil {
		t.Errorf("SetState rejected a backlog of exactly maxBacklog: %v", err)
	}
	if err := NewClock(p, 1).SetState(st, next+(maxBacklog+1)*100); err == nil {
		t.Error("SetState accepted a backlog above maxBacklog")
	}
	c := NewClock(p, 1)
	if err := c.SetState(st, 0); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ step, want int64 }{
		{next - 1, 0}, {next, 0}, {next + 99, 0}, {next + 1000, 10},
		{noEvent, math.MaxInt64}, // the disabled lanes' sentinel is due
	} {
		if got := c.Backlog(tc.step); got != tc.want {
			t.Errorf("Backlog(%d) = %d, want %d", tc.step, got, tc.want)
		}
	}
}

func TestClockBudgets(t *testing.T) {
	p, err := Profile{CrashEvery: 1, MaxCrashes: 3}.Normalize(EnginePop, 10)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClock(p, 7)
	crashes := 0
	for {
		ev, ok := c.NextDue(1 << 40)
		if !ok {
			break
		}
		if ev == EvCrash {
			crashes++
		}
		if crashes > 3 {
			t.Fatal("crash budget exceeded")
		}
	}
	if crashes != 3 {
		t.Fatalf("crashes = %d, want 3", crashes)
	}

	p, err = Profile{ArriveEvery: 1, DepartEvery: 1, MaxChurn: 4}.Normalize(EnginePop, 10)
	if err != nil {
		t.Fatal(err)
	}
	c = NewClock(p, 7)
	churn := 0
	for {
		_, ok := c.NextDue(1 << 40)
		if !ok {
			break
		}
		churn++
		if churn > 4 {
			t.Fatal("churn budget exceeded")
		}
	}
	if churn != 4 {
		t.Fatalf("churn = %d, want 4", churn)
	}
}

func TestAgentsFaultCensus(t *testing.T) {
	p, err := Profile{CrashEvery: 10, RecoverEvery: 10, FreezeEvery: 10, ThawEvery: 10,
		ArriveEvery: 10, DepartEvery: 10}.Normalize(EnginePop, 8)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAgents(p, 8, 1)
	if a.Active() != 8 || a.Present() != 8 {
		t.Fatalf("initial census %d/%d, want 8/8", a.Active(), a.Present())
	}
	k, ok := a.fault(EvCrash)
	if !ok || a.IsActive(k) || a.Active() != 7 || a.Present() != 8 {
		t.Fatalf("after crash of %d: active=%d present=%d", k, a.Active(), a.Present())
	}
	r, ok := a.fault(EvRecover)
	if !ok || r != k || !a.IsActive(k) || a.Active() != 8 {
		t.Fatalf("recover got %d (ok=%v), want %d", r, ok, k)
	}
	f, ok := a.fault(EvFreeze)
	if !ok || a.IsActive(f) {
		t.Fatalf("freeze failed")
	}
	if th, ok := a.fault(EvThaw); !ok || th != f {
		t.Fatalf("thaw got %d, want %d", th, f)
	}
	nw := a.ArriveOne()
	if nw != 8 || a.Len() != 9 || a.Active() != 9 || a.Present() != 9 {
		t.Fatalf("arrival: idx=%d len=%d active=%d present=%d", nw, a.Len(), a.Active(), a.Present())
	}
	d, ok := a.DepartOne(nil)
	if !ok || a.IsPresent(d) || a.Present() != 8 {
		t.Fatalf("depart: %d present=%d", d, a.Present())
	}
	// A departed agent never recovers, thaws, or departs again.
	a2 := NewAgents(p, 1, 1)
	if d, ok := a2.DepartOne(nil); !ok || d != 0 {
		t.Fatalf("lone agent did not depart: %d, %v", d, ok)
	}
	if _, ok := a2.DepartOne(nil); ok {
		t.Fatal("departed agent departed again")
	}
	if _, ok := a2.fault(EvCrash); ok {
		t.Fatal("departed agent crashed")
	}
}

func TestPickExcludesInactive(t *testing.T) {
	p, err := Profile{CrashEvery: 1}.Normalize(EnginePop, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAgents(p, 4, 1)
	rng := wrand.NewRNG(99)
	a.setFlags(1, flagCrashed)
	a.setFlags(2, flagFrozen)
	for trial := 0; trial < 200; trial++ {
		i, j, ok := a.Pick(rng)
		if !ok {
			t.Fatal("pick failed with 2 active agents")
		}
		if i == j || !a.IsActive(i) || !a.IsActive(j) {
			t.Fatalf("picked (%d,%d) with 1,2 inactive", i, j)
		}
	}
	a.setFlags(3, flagCrashed)
	if _, _, ok := a.Pick(rng); ok {
		t.Fatal("pick succeeded with 1 active agent")
	}
}

func TestWeightedPickBias(t *testing.T) {
	// rates [1,9] alternate: odd ids are 9x as active as even ids.
	p, err := Profile{Scheduler: KindWeighted, Rates: []int64{1, 9}}.Normalize(EnginePop, 10)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAgents(p, 10, 1)
	rng := wrand.NewRNG(5)
	odd := 0
	const trials = 20000
	for t := 0; t < trials; t++ {
		i, _, _ := a.Pick(rng)
		if i%2 == 1 {
			odd++
		}
	}
	// Expect 90% odd initiators; allow generous slack.
	if frac := float64(odd) / trials; frac < 0.85 || frac > 0.95 {
		t.Fatalf("odd initiator fraction = %.3f, want ~0.9", frac)
	}
}

func TestClusteredPickPrefersBlock(t *testing.T) {
	p, err := Profile{Scheduler: KindClustered, BlockSize: 4, BiasPct: 100}.Normalize(EnginePop, 64)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAgents(p, 64, 1)
	rng := wrand.NewRNG(5)
	for t2 := 0; t2 < 2000; t2++ {
		i, j, ok := a.Pick(rng)
		if !ok {
			t.Fatal("pick failed")
		}
		if i/4 != j/4 {
			t.Fatalf("bias 100%% picked cross-block pair (%d,%d)", i, j)
		}
	}
}

func TestAdversarialStarvationAndForcedService(t *testing.T) {
	// 10% of 20 agents starved => ids {0,1}; bound 50.
	p, err := Profile{Scheduler: KindAdversarialDelay, StarvePct: 10, FairnessBound: 50}.Normalize(EnginePop, 20)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAgents(p, 20, 1)
	rng := wrand.NewRNG(11)
	served := 0
	var sinceLast int64
	for step := 0; step < 500; step++ {
		i, j, ok := a.Pick(rng)
		if !ok {
			t.Fatal("pick failed")
		}
		if i < 2 || j < 2 {
			served++
			if sinceLast < 50 {
				t.Fatalf("starved agent served after only %d steps (bound 50)", sinceLast)
			}
			sinceLast = 0
		} else {
			sinceLast++
		}
	}
	// 500 steps at bound 50: starved set served ~every 51 steps.
	if served < 5 || served > 12 {
		t.Fatalf("starved set served %d times in 500 steps, want ~9", served)
	}

	// Veto form: same fairness accounting.
	a2 := NewAgents(p, 20, 1)
	allowedStarved := 0
	var since int64
	for step := 0; step < 500; step++ {
		if a2.AllowPair(0, 5) {
			allowedStarved++
			if since < 50 {
				t.Fatalf("veto released after only %d steps", since)
			}
			since = 0
		} else {
			since++
		}
	}
	if allowedStarved == 0 {
		t.Fatal("starved pair never released by fairness bound")
	}
}

func TestScaleInter(t *testing.T) {
	p, err := Profile{Scheduler: KindClustered, BiasPct: 75}.Normalize(EngineSim, 10)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAgents(p, 10, 1)
	if got := a.ScaleInter(1000); got != 250 {
		t.Fatalf("ScaleInter(1000) = %d, want 250", got)
	}
	if got := a.ScaleInter(2); got != 1 {
		t.Fatalf("ScaleInter(2) = %d, want 1 (floor)", got)
	}
	// Uniform never rescales.
	up, _ := Profile{CrashEvery: 5}.Normalize(EngineSim, 10)
	ua := NewAgents(up, 10, 1)
	if got := ua.ScaleInter(1000); got != 1000 {
		t.Fatalf("uniform ScaleInter(1000) = %d", got)
	}
}

func TestAgentsStateRoundTrip(t *testing.T) {
	p, err := Profile{Scheduler: KindAdversarialDelay, StarvePct: 20, FairnessBound: 100,
		CrashEvery: 30, RecoverEvery: 50, ArriveEvery: 40, DepartEvery: 70}.Normalize(EnginePop, 10)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAgents(p, 10, 3)
	rng := wrand.NewRNG(4)
	// Disturb the state: faults plus fairness progress.
	a.fault(EvCrash)
	a.ArriveOne()
	a.DepartOne(nil)
	for i := 0; i < 25; i++ {
		a.Pick(rng)
	}
	st := a.State()

	b := NewAgents(p, 10, 3)
	if err := b.RestoreState(st, 0); err != nil {
		t.Fatal(err)
	}
	if b.Active() != a.Active() || b.Present() != a.Present() || b.Len() != a.Len() {
		t.Fatalf("census mismatch: restored %d/%d/%d, want %d/%d/%d",
			b.Active(), b.Present(), b.Len(), a.Active(), a.Present(), a.Len())
	}
	if b.sinceService != a.sinceService {
		t.Fatalf("sinceService %d, want %d", b.sinceService, a.sinceService)
	}
	// The two must continue identically: same picks, then the same fault
	// timeline and the same victims, drain by drain.
	rngA, rngB := wrand.NewRNG(8), wrand.NewRNG(8)
	for i := 0; i < 50; i++ {
		ai, aj, aok := a.Pick(rngA)
		bi, bj, bok := b.Pick(rngB)
		if ai != bi || aj != bj || aok != bok {
			t.Fatalf("pick %d diverged: (%d,%d,%v) vs (%d,%d,%v)", i, ai, aj, aok, bi, bj, bok)
		}
	}
	for step := int64(0); step < 1000; step += 10 {
		for {
			evA, okA := a.NextChurn(step)
			evB, okB := b.NextChurn(step)
			if okA != okB || evA != evB {
				t.Fatalf("fault timeline diverged at step %d: (%v,%v) vs (%v,%v)", step, evA, okA, evB, okB)
			}
			if !okA {
				break
			}
			if evA == EvArrive {
				a.ArriveOne()
				b.ArriveOne()
			} else {
				a.DepartOne(nil)
				b.DepartOne(nil)
			}
		}
		if !slices.Equal(a.flags, b.flags) || a.Active() != b.Active() || a.Present() != b.Present() {
			t.Fatalf("census diverged after the drain at step %d: flags %v vs %v", step, a.flags, b.flags)
		}
	}
	if a.FaultEvents() == 0 || a.FaultEvents() != b.FaultEvents() {
		t.Fatalf("fault events %d vs %d, want equal and positive", a.FaultEvents(), b.FaultEvents())
	}
	// Mismatched restore target is rejected.
	c := NewAgents(p, 11, 3)
	if err := c.RestoreState(st, 0); err == nil {
		t.Fatal("founders mismatch accepted")
	}
}

// TestAgentsRestoreRejectsImpossibleFlags pins the flag check of
// RestoreState: a run leaves each agent active, crashed or frozen, each
// possibly departed, and nothing else. Before the check, restoring
// {0x80, crashed|frozen, 0, 0} succeeded with two agents active, and the
// 0x80 agent sat outside every fault lane for good.
func TestAgentsRestoreRejectsImpossibleFlags(t *testing.T) {
	p, err := Profile{CrashEvery: 10, FreezeEvery: 10, DepartEvery: 10}.Normalize(EngineSim, 4)
	if err != nil {
		t.Fatal(err)
	}
	restore := func(flags ...uint8) error {
		st := NewAgents(p, 4, 1).State()
		st.Flags = flags
		return NewAgents(p, 4, 1).RestoreState(st, 0)
	}
	if err := restore(0x80, flagCrashed|flagFrozen, 0, 0); err == nil {
		t.Fatal("restored an unknown flag bit and crashed|frozen")
	}
	for _, f := range []uint8{0x80, 0x08, flagCrashed | flagFrozen, flagCrashed | flagFrozen | flagDeparted} {
		if err := restore(f, 0, 0, 0); err == nil {
			t.Errorf("restored flags %#x", f)
		}
	}
	possible := []uint8{0, flagCrashed, flagFrozen, flagDeparted, flagCrashed | flagDeparted, flagFrozen | flagDeparted}
	for _, f := range possible {
		if err := restore(f, 0, 0, 0); err != nil {
			t.Errorf("flags %#x rejected: %v", f, err)
		}
	}
	if err := restore(possible...); err != nil {
		t.Fatalf("a census of every possible flag byte rejected: %v", err)
	}
}

// TestNextChurnAllocatesNothing pins the drain's cost: applying crashes,
// recoveries, freezes and thaws, and handing back departures for the
// engine's eligibility walk, allocates nothing, so the engines can drain
// on every cadence tick.
func TestNextChurnAllocatesNothing(t *testing.T) {
	p, err := Profile{CrashEvery: 3, RecoverEvery: 3, FreezeEvery: 3, ThawEvery: 3,
		DepartEvery: 40, MaxChurn: 20}.Normalize(EnginePop, 64)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAgents(p, 64, 1)
	even := func(k int) bool { return k%2 == 0 }
	var step int64
	allocs := testing.AllocsPerRun(200, func() {
		step += 16
		for {
			ev, ok := a.NextChurn(step)
			if !ok {
				break
			}
			if ev == EvDepart {
				a.DepartOne(even)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("a drain allocates %v times, want 0", allocs)
	}
	if a.FaultEvents() < 1000 || a.Present() == 64 {
		t.Fatalf("%d fault events, %d present: the drain did not run", a.FaultEvents(), a.Present())
	}
}

// TestDepartOneEligible pins the one victim walk's eligibility rule:
// DepartOne asks the predicate only about present agents, draws among the
// ones it admits, and draws nothing when it admits none.
func TestDepartOneEligible(t *testing.T) {
	p, err := Profile{DepartEvery: 10}.Normalize(EnginePop, 7)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAgents(p, 7, 1)
	gone, ok := a.DepartOne(nil)
	if !ok || a.IsPresent(gone) {
		t.Fatal("no present agent departed")
	}
	even := func(k int) bool {
		if !a.IsPresent(k) {
			t.Fatalf("eligibility asked about departed agent %d", k)
		}
		return k%2 == 0
	}
	for {
		before := a.clock.RNG().State()
		k, ok := a.DepartOne(even)
		if !ok {
			if a.clock.RNG().State() != before {
				t.Fatal("a departure with no eligible agent drew from the fault RNG")
			}
			break
		}
		if k%2 != 0 || a.IsPresent(k) {
			t.Fatalf("departed %d (still present: %v), want an even id", k, a.IsPresent(k))
		}
	}
	for k := 0; k < a.Len(); k++ {
		if want := k%2 == 1 && k != gone; a.IsPresent(k) != want {
			t.Fatalf("agent %d present=%v after every even id left", k, a.IsPresent(k))
		}
	}
}

func TestRunDefaults(t *testing.T) {
	var ms, ce int64
	RunDefaults(&ms, &ce, 123)
	if ms != 123 || ce != 256 {
		t.Fatalf("defaults = %d/%d, want 123/256", ms, ce)
	}
	ms, ce = 7, 9
	RunDefaults(&ms, &ce, 123)
	if ms != 7 || ce != 9 {
		t.Fatalf("explicit values clobbered: %d/%d", ms, ce)
	}
}
