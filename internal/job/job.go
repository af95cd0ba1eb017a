// Package job is the unified run layer of the reproduction: one registry
// of protocol Specs, one typed Job describing a single execution
// (protocol name, typed parameters, seed, engine choice, budget), one
// Result envelope with stable JSON marshaling, and one context-aware entry
// point — Run(ctx, Job) — shared by the shapesol facade, cmd/shapesim,
// cmd/experiments, the examples and the parallel trial runner
// (internal/runner.RunMany).
//
// Every construction of the paper registers a Spec in the Default
// registry: the Section 4 stabilizing tables, the Section 5 counting
// protocols (Theorems 1-3 and the Conjecture 1 evidence harness), the
// Section 6 terminating constructions (Lemmas 1-2, Theorems 4-5) and the
// Section 7 self-replication. A Spec names the engines that can execute
// the protocol — the exact pair scheduler (internal/pop), the
// urn-compressed scheduler (internal/pop/urn) and the geometric simulator
// (internal/sim) — and carries the per-protocol default step budgets that
// used to be hardcoded in the facade.
//
// Cancellation: the context handed to Run is threaded into the engines'
// step loops and observed on their CheckEvery cadence, so canceling it
// stops any run — including an n = 10^6 urn run that is simulating
// trillions of scheduler steps — promptly, with Result.Reason ==
// ReasonCanceled. The engines' per-step hot paths stay allocation-free.
//
// Checkpointing: a Job's Checkpoint hook (same cadence as Progress) can
// freeze the running world into a snap.Snapshot, and Resume(ctx, s)
// drives a frozen run to completion. Resume-at-step-k yields a Result
// byte-identical (up to WallTime) to the uninterrupted execution; the
// per-spec engine adapters in checkpoint.go are the state codecs that
// make this work for every registered protocol × engine pair.
package job

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"shapesol/internal/grid"
	"shapesol/internal/obs"
	"shapesol/internal/sched"
	"shapesol/internal/snap"
)

// Engine selects the execution engine of a Job.
type Engine string

// The four engines. Not every protocol supports every engine: geometric
// constructions need sim, the counting protocols of Section 5 run on pop
// (and, for value-state protocols, on urn), and check is feasible only
// where the symmetry-reduced configuration space is enumerable at the
// submitted n.
const (
	// EngineSim is the geometric simulation engine (internal/sim).
	EngineSim Engine = "sim"
	// EnginePop is the exact uniform pair scheduler (internal/pop).
	EnginePop Engine = "pop"
	// EngineUrn is the urn-compressed scheduler with ineffective-step
	// skipping (internal/pop/urn).
	EngineUrn Engine = "urn"
	// EngineCheck is the exhaustive verification engine (internal/check):
	// instead of sampling one fair execution per seed it explores every
	// reachable configuration and returns an exact verdict — halts in
	// every fair execution, all halting configurations correct, worst-case
	// depth — with a counterexample witness trace on failure. Its MaxSteps
	// budget bounds discovered configurations, not scheduler steps, and
	// Seed is ignored (there is nothing to sample).
	EngineCheck Engine = "check"
)

// ReasonCanceled is the Result.Reason reported when the Job's context was
// canceled before the protocol reached a terminal condition. The other
// reasons are the engines' stop-reason strings ("halted", "max-steps",
// "predicate", ...).
const ReasonCanceled = "canceled"

// Params is the typed parameter set of a Job. Which fields a protocol
// reads — and their defaults — is declared by its Spec's Params schema;
// Run rejects a Job that sets a field its protocol does not take. A zero
// field means "use the spec default" — there is deliberately no way to
// pass an explicit zero for a defaulted parameter (no protocol here has a
// meaningful zero: sizes and side lengths must be positive, and the
// counting head start is clamped to >= 1 by the protocol itself).
type Params struct {
	// N is the population size.
	N int `json:"n,omitempty"`
	// B is the head start (counting protocols) or window length.
	B int `json:"b,omitempty"`
	// D is the square side length.
	D int `json:"d,omitempty"`
	// K is the memory-column height of the parallel 3D constructor.
	K int `json:"k,omitempty"`
	// Free is the number of free nodes added to a seeded configuration.
	Free int `json:"free,omitempty"`
	// Lang names a shape language (Definition 3).
	Lang string `json:"lang,omitempty"`
	// Table names a Section 4 stabilizing rule table.
	Table string `json:"table,omitempty"`
	// Shape is the replication target, carried by reference. Its JSON form
	// (see MarshalJSON) is the cell list plus any non-full bond list, which
	// is what lets shape-parameterized jobs travel over the daemon wire and
	// ride inside snapshots.
	Shape *grid.Shape `json:"-"`
	// Fault is the scheduler/fault-injection profile (internal/sched). Nil
	// — or a profile that normalizes to the zero value — means the default
	// uniform scheduler with no faults, leaving the engine's historical RNG
	// stream untouched; Normalize collapses zero profiles to nil so both
	// forms share one cache identity. Marshaled through the wire form so it
	// rides the daemon API and snapshots like every other parameter.
	Fault *sched.Profile `json:"-"`
}

// paramsWire is the JSON projection of Params: the scalar fields plus the
// shape flattened to cells and (when not fully bonded) explicit bonds.
type paramsWire struct {
	N     int        `json:"n,omitempty"`
	B     int        `json:"b,omitempty"`
	D     int        `json:"d,omitempty"`
	K     int        `json:"k,omitempty"`
	Free  int        `json:"free,omitempty"`
	Lang  string     `json:"lang,omitempty"`
	Table string     `json:"table,omitempty"`
	Shape []grid.Pos `json:"shape,omitempty"`
	// Fault decodes strictly along with the rest of the wire form: the
	// Profile has no custom unmarshaler, so DisallowUnknownFields reaches
	// into it and unknown fault fields 400 like unknown parameters.
	Fault *sched.Profile `json:"fault,omitempty"`
	// ShapeBonds lists the shape's bonds when it is not fully bonded;
	// absent means "every adjacent cell pair bonded" (grid.ShapeOf), the
	// form every paper shape uses. A pointer, because an explicit empty
	// list (a bond-less shape) must not be collapsed into the absent
	// form by omitempty.
	ShapeBonds *[][2]grid.Pos `json:"shape_bonds,omitempty"`
}

// MarshalJSON renders Params with the by-reference Shape flattened into
// its cells (sorted, so equal shapes render equal bytes) and, if the
// shape is not fully bonded, its explicit bond list.
func (p Params) MarshalJSON() ([]byte, error) {
	w := paramsWire{N: p.N, B: p.B, D: p.D, K: p.K, Free: p.Free, Lang: p.Lang, Table: p.Table, Fault: p.Fault}
	if p.Shape != nil {
		w.Shape = p.Shape.Cells()
		if full := grid.ShapeOf(w.Shape...); full.NumBonds() != p.Shape.NumBonds() {
			// Present even for a bond-less shape: omitting the (empty) list
			// would decode as "fully bonded", silently changing the shape.
			bonds := make([][2]grid.Pos, 0, p.Shape.NumBonds())
			for _, e := range p.Shape.Edges() {
				bonds = append(bonds, [2]grid.Pos{e.A, e.B})
			}
			w.ShapeBonds = &bonds
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON parses the wire form strictly: unknown parameter fields
// are rejected here (a nested DisallowUnknownFields does not traverse a
// custom unmarshaler), which keeps the daemon's 400-on-unknown-parameter
// contract.
func (p *Params) UnmarshalJSON(data []byte) error {
	var w paramsWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	*p = Params{N: w.N, B: w.B, D: w.D, K: w.K, Free: w.Free, Lang: w.Lang, Table: w.Table, Fault: w.Fault}
	if len(w.Shape) > 0 {
		if w.ShapeBonds == nil {
			p.Shape = grid.ShapeOf(w.Shape...)
		} else {
			s := grid.NewShape()
			for _, c := range w.Shape {
				s.Add(c)
			}
			for _, b := range *w.ShapeBonds {
				if err := s.Bond(b[0], b[1]); err != nil {
					return fmt.Errorf("shape bond %v-%v: %w", b[0], b[1], err)
				}
			}
			p.Shape = s
		}
	}
	return nil
}

// intField and strField give schema-driven access to the named fields.
func (p *Params) intField(name string) *int {
	switch name {
	case "n":
		return &p.N
	case "b":
		return &p.B
	case "d":
		return &p.D
	case "k":
		return &p.K
	case "free":
		return &p.Free
	}
	return nil
}

func (p *Params) strField(name string) *string {
	switch name {
	case "lang":
		return &p.Lang
	case "table":
		return &p.Table
	}
	return nil
}

// intFieldNames and strFieldNames enumerate every settable Params field,
// so that normalization can reject fields outside a Spec's schema.
var (
	intFieldNames = []string{"n", "b", "d", "k", "free"}
	strFieldNames = []string{"lang", "table"}
)

// Field declares one parameter of a Spec: its Params field name, whether
// it must be set, the default applied when it is zero, and the minimum a
// set int field must reach. A Field named "shape" refers to Params.Shape
// (required-only; no default or minimum).
type Field struct {
	Name     string
	Usage    string
	Required bool
	// Default fills a zero int field; DefaultStr a zero string field.
	Default    int
	DefaultStr string
	// Min rejects a non-zero int value below it (zero still means "use
	// the default"), so out-of-range jobs fail validation instead of
	// panicking inside an engine.
	Min int
}

// Job describes one protocol execution.
type Job struct {
	// Protocol is the Spec name (see Registry.Names).
	Protocol string `json:"protocol"`
	// Params carries the typed protocol parameters.
	Params Params `json:"params"`
	// Seed seeds the engine's scheduler RNG.
	Seed int64 `json:"seed"`
	// Engine selects the execution engine; empty means the Spec's default
	// (its first supported engine).
	Engine Engine `json:"engine,omitempty"`
	// MaxSteps overrides the Spec's default step budget when positive.
	MaxSteps int64 `json:"max_steps,omitempty"`
	// Progress, when non-nil, is invoked on the engine's CheckEvery
	// cadence with the current step count. It must not mutate the run.
	Progress func(steps int64) `json:"-"`
	// Checkpoint, when non-nil, is invoked on the same cadence as
	// Progress with the current step count and a capture function that
	// freezes the running world into a restorable snapshot. Capture cost
	// (memento copy + encode) is paid only when capture is called, so
	// callers throttle snapshotting by simply not calling it; capture is
	// valid only for the duration of the callback (the world moves on
	// afterwards). Capturing does not perturb the run: the resulting
	// Result is byte-identical to an unobserved execution.
	Checkpoint func(steps int64, capture func() (*snap.Snapshot, error)) `json:"-"`
	// Restore, when non-nil, initializes the run from a snapshot instead
	// of the protocol's initial configuration; the run then continues the
	// frozen trajectory exactly. Normally set through Resume.
	Restore *snap.Snapshot `json:"-"`
	// Metrics, when non-nil, receives the engine's fleet-wide counter
	// deltas (steps, effective interactions, skips, ...) on the same
	// cadence as Progress. Like the other hooks it is not identity:
	// excluded from the wire format and from CacheKey, and attaching it
	// never perturbs the run.
	Metrics *obs.EngineMetrics `json:"-"`
}

// Outcome is what a Spec's runner reports back to Run: the envelope
// measurements plus the protocol-specific payload.
type Outcome struct {
	Steps  int64
	Halted bool   // the protocol reached its terminal condition
	Reason string // engine stop reason ("halted", "max-steps", "canceled", ...)
	// Payload is the protocol's own outcome struct (e.g.
	// counting.UpperBoundOutcome); it must marshal to JSON.
	Payload any
}

// Result is the common envelope of one executed Job.
type Result struct {
	Protocol string `json:"protocol"`
	Engine   Engine `json:"engine"`
	Seed     int64  `json:"seed"`
	Halted   bool   `json:"halted"`
	Reason   string `json:"reason"`
	Steps    int64  `json:"steps"`
	// WallTime is the measured execution time. It is the one
	// non-deterministic envelope field; consumers that need reproducible
	// bytes (golden files, aggregate tables) zero or drop it.
	WallTime time.Duration `json:"wall_ns"`
	// Payload is the protocol-specific outcome. It round-trips through
	// JSON as a generic object.
	Payload any `json:"payload,omitempty"`
}

// Spec describes one registered protocol.
type Spec struct {
	// Name is the registry key, kebab-case (e.g. "counting-upper-bound").
	Name string
	// Title is a one-line description.
	Title string
	// Paper names the claim the protocol implements (e.g. "Theorem 1").
	Paper string
	// Engines lists the supported engines; Engines[0] is the default.
	Engines []Engine
	// Budget is the default MaxSteps; Budgets overrides it per engine.
	Budget  int64
	Budgets map[Engine]int64
	// Params is the parameter schema.
	Params []Field
	// Population returns the size of the world a job starts with and the
	// parameter that sets it; nil means Params.N. Normalize checks it,
	// plus every possible arrival, against the engine's MaxPopulation.
	Population func(p Params) (size float64, field string)
	// Run executes the protocol. It receives the normalized Job (engine
	// resolved, budget and parameter defaults applied).
	Run func(ctx context.Context, j Job) (Outcome, error)
}

// Supports reports whether the spec can execute on engine e.
func (s *Spec) Supports(e Engine) bool {
	for _, have := range s.Engines {
		if have == e {
			return true
		}
	}
	return false
}

// BudgetFor returns the default step budget on engine e.
func (s *Spec) BudgetFor(e Engine) int64 {
	if b, ok := s.Budgets[e]; ok {
		return b
	}
	return s.Budget
}

// normalize applies the spec's parameter defaults to p and validates it:
// required fields must be set, fields outside the schema must not be.
func (s *Spec) normalize(p *Params) error {
	schema := make(map[string]Field, len(s.Params))
	for _, f := range s.Params {
		schema[f.Name] = f
	}
	for _, name := range intFieldNames {
		v := p.intField(name)
		f, ok := schema[name]
		if !ok {
			if *v != 0 {
				return fmt.Errorf("job: protocol %q does not take parameter %q", s.Name, name)
			}
			continue
		}
		if *v == 0 {
			*v = f.Default
		}
		if f.Required && *v == 0 {
			return fmt.Errorf("job: protocol %q requires parameter %q", s.Name, name)
		}
		if *v != 0 && *v < f.Min {
			return fmt.Errorf("job: protocol %q parameter %q = %d, want >= %d",
				s.Name, name, *v, f.Min)
		}
	}
	for _, name := range strFieldNames {
		v := p.strField(name)
		f, ok := schema[name]
		if !ok {
			if *v != "" {
				return fmt.Errorf("job: protocol %q does not take parameter %q", s.Name, name)
			}
			continue
		}
		if *v == "" {
			*v = f.DefaultStr
		}
		if f.Required && *v == "" {
			return fmt.Errorf("job: protocol %q requires parameter %q", s.Name, name)
		}
	}
	if f, ok := schema["shape"]; ok {
		if f.Required && p.Shape == nil {
			return fmt.Errorf("job: protocol %q requires parameter %q", s.Name, "shape")
		}
	} else if p.Shape != nil {
		return fmt.Errorf("job: protocol %q does not take parameter %q", s.Name, "shape")
	}
	if _, ok := schema["fault"]; !ok && p.Fault != nil {
		return fmt.Errorf("job: protocol %q does not take parameter %q", s.Name, "fault")
	}
	return nil
}

// MaxPopulation caps each engine's population at admission. The pop,
// check and sim engines allocate per agent or per node, so a job above its
// cap would exhaust the daemon's memory while its world is built; the urn
// engine keeps counts per state, and its cap keeps the pair weight
// n(n-1) inside int64. Every golden, test, benchmark and experiment job
// sits far below its cap.
var MaxPopulation = map[Engine]int64{
	EnginePop:   1_000_000,
	EngineCheck: 1_000_000,
	EngineSim:   100_000,
	EngineUrn:   3_000_000_000,
}

// checkPopulation rejects a job whose world could outgrow its engine's
// cap: the initial population, plus every arrival its fault profile
// allows. Arrivals need a max_churn to be bounded at all. The check is
// O(1), but for a replication shape's bounds, so it costs nothing on a
// cache hit.
func checkPopulation(spec *Spec, j Job) error {
	limit, capped := MaxPopulation[j.Engine]
	if !capped {
		return nil
	}
	size, field := float64(j.Params.N), "n"
	if spec.Population != nil {
		size, field = spec.Population(j.Params)
	}
	var errs []sched.FieldError
	if size > float64(limit) {
		errs = append(errs, sched.FieldError{Field: field,
			Msg: fmt.Sprintf("population %.0f exceeds the %s engine's cap of %d", size, j.Engine, limit)})
	} else if f := j.Params.Fault; f != nil && f.ArriveEvery > 0 {
		switch {
		case f.MaxChurn == 0:
			errs = append(errs, sched.FieldError{Field: "max_churn",
				Msg: fmt.Sprintf("required with arrive_every: the %s engine caps its population at %d", j.Engine, limit)})
		case size+float64(f.MaxChurn) > float64(limit):
			errs = append(errs, sched.FieldError{Field: "max_churn",
				Msg: fmt.Sprintf("population %.0f plus %d arrivals exceeds the %s engine's cap of %d",
					size, f.MaxChurn, j.Engine, limit)})
		}
	}
	if errs != nil {
		return fmt.Errorf("job: protocol %q: %w", spec.Name, &sched.ValidationError{Of: "population", Fields: errs})
	}
	return nil
}

// Run executes j against the Default registry.
func Run(ctx context.Context, j Job) (Result, error) {
	return Default.Run(ctx, j)
}

// Normalize resolves j against the registry without executing it: it
// checks the protocol name, selects the engine (the Spec's default when
// empty), applies the default step budget and the Spec's parameter
// defaults, and validates the parameters against the Spec's schema. The
// returned Job is fully resolved — two Jobs that normalize to the same
// value describe the same deterministic execution, which is what
// CacheKey captures. Errors are validation errors: unknown protocol,
// unsupported engine, negative budget, parameters outside the schema, or
// a population above the engine's cap (MaxPopulation).
func (r *Registry) Normalize(j Job) (Job, *Spec, error) {
	spec, ok := r.Get(j.Protocol)
	if !ok {
		return j, nil, fmt.Errorf("job: unknown protocol %q (have %s)",
			j.Protocol, strings.Join(r.Names(), ", "))
	}
	if j.Engine == "" {
		j.Engine = spec.Engines[0]
	} else if !spec.Supports(j.Engine) {
		return j, nil, fmt.Errorf("job: protocol %q does not run on engine %q (supported: %v)",
			spec.Name, j.Engine, spec.Engines)
	}
	if j.MaxSteps < 0 {
		return j, nil, fmt.Errorf("job: negative step budget %d", j.MaxSteps)
	}
	if j.MaxSteps == 0 {
		j.MaxSteps = spec.BudgetFor(j.Engine)
	}
	if err := spec.normalize(&j.Params); err != nil {
		return j, nil, err
	}
	if j.Params.Fault != nil {
		// Normalized after engine resolution: the profile's validity depends
		// on the engine (the scheduler support matrix) and on n (the urn
		// pair-weight overflow bound). The error is a *sched.ValidationError
		// under the wrapping, so API layers can surface field-level details.
		np, err := j.Params.Fault.Normalize(string(j.Engine), j.Params.N)
		if err != nil {
			return j, nil, fmt.Errorf("job: protocol %q fault profile: %w", spec.Name, err)
		}
		if np.IsZero() {
			j.Params.Fault = nil
		} else {
			j.Params.Fault = &np
		}
	}
	if err := checkPopulation(spec, j); err != nil {
		return j, nil, err
	}
	return j, spec, nil
}

// Normalize resolves j against the Default registry.
func Normalize(j Job) (Job, *Spec, error) {
	return Default.Normalize(j)
}

// CacheKey returns the canonical identity of a normalized Job: every
// field that determines the deterministic outcome of the run — protocol,
// engine, seed, step budget and the full parameter set (including the
// cells of a by-reference Shape) — folded into one string. Two Jobs with
// equal keys produce byte-identical Result envelopes up to WallTime, so
// the key is safe to use for result caching and deduplication. Call it on
// the Job returned by Normalize: pre-normalization Jobs may differ only
// in fields a default would fill in.
func (j Job) CacheKey() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%s|seed=%d|budget=%d|n=%d|b=%d|d=%d|k=%d|free=%d|lang=%s|table=%s",
		j.Protocol, j.Engine, j.Seed, j.MaxSteps,
		j.Params.N, j.Params.B, j.Params.D, j.Params.K, j.Params.Free,
		j.Params.Lang, j.Params.Table)
	if j.Params.Shape != nil {
		sb.WriteString("|shape=")
		// Cells() is already in deterministic lexicographic order, so
		// equal cell sets render equal key fragments.
		cells := j.Params.Shape.Cells()
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(';')
			}
			fmt.Fprintf(&sb, "%d,%d,%d", c.X, c.Y, c.Z)
		}
		if full := grid.ShapeOf(cells...); full.NumBonds() != j.Params.Shape.NumBonds() {
			// Same cells, different bond sets are different run identities;
			// Edges() is canonically sorted, so the fragment is stable.
			sb.WriteString("|bonds=")
			for i, e := range j.Params.Shape.Edges() {
				if i > 0 {
					sb.WriteByte(';')
				}
				fmt.Fprintf(&sb, "%d,%d,%d-%d,%d,%d", e.A.X, e.A.Y, e.A.Z, e.B.X, e.B.Y, e.B.Z)
			}
		}
	}
	if j.Params.Fault != nil {
		// Normalize collapses zero profiles to nil, so profile-less jobs and
		// explicitly-uniform jobs share one key (they share one RNG stream).
		sb.WriteString("|fault=")
		sb.WriteString(j.Params.Fault.Key())
	}
	return sb.String()
}

// Run executes one Job: it resolves the Spec, selects the engine, applies
// the default budget and parameter defaults, and wraps the protocol's
// outcome in the Result envelope. A canceled context is reported through
// Result.Reason == ReasonCanceled, not as an error; errors are reserved
// for invalid jobs (unknown protocol or engine, bad parameters) and
// configuration failures.
func (r *Registry) Run(ctx context.Context, j Job) (Result, error) {
	j, spec, err := r.Normalize(j)
	if err != nil {
		return Result{}, err
	}
	return RunNormalized(ctx, j, spec)
}

// ResumeJob decodes and normalizes the job frozen inside a snapshot and
// returns it with Restore set, ready for RunNormalized. Callers that need
// to attach live hooks (the daemon's Progress publisher and Checkpoint
// writer) use this instead of Resume. The snapshot's identity fields must
// match the decoded job — a mismatch means the container was assembled
// inconsistently and the engine state cannot be trusted.
func (r *Registry) ResumeJob(s *snap.Snapshot) (Job, *Spec, error) {
	if s == nil || len(s.Job) == 0 {
		return Job{}, nil, fmt.Errorf("job: snapshot carries no job")
	}
	var j Job
	dec := json.NewDecoder(bytes.NewReader(s.Job))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return Job{}, nil, fmt.Errorf("job: decode snapshot job: %w", err)
	}
	nj, spec, err := r.Normalize(j)
	if err != nil {
		return Job{}, nil, err
	}
	if nj.Protocol != s.Protocol || string(nj.Engine) != s.Engine || nj.Seed != s.Seed {
		return Job{}, nil, fmt.Errorf("job: snapshot identity %s/%s/seed=%d does not match its job %s/%s/seed=%d",
			s.Protocol, s.Engine, s.Seed, nj.Protocol, nj.Engine, nj.Seed)
	}
	nj.Restore = s
	return nj, spec, nil
}

// Resume executes the run frozen in s to completion: the world is rebuilt
// from the snapshot's engine state and driven to its terminal condition,
// yielding a Result byte-identical (up to WallTime) to the uninterrupted
// execution of the same job.
func (r *Registry) Resume(ctx context.Context, s *snap.Snapshot) (Result, error) {
	j, spec, err := r.ResumeJob(s)
	if err != nil {
		return Result{}, err
	}
	return RunNormalized(ctx, j, spec)
}

// Resume executes a snapshot against the Default registry.
func Resume(ctx context.Context, s *snap.Snapshot) (Result, error) {
	return Default.Resume(ctx, s)
}

// RunNormalized executes a Job that Normalize already resolved against
// its Spec, skipping re-validation — the path for callers (the job
// service's workers) that normalized at admission time.
func RunNormalized(ctx context.Context, j Job, spec *Spec) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	out, err := spec.Run(ctx, j)
	res := Result{
		Protocol: spec.Name,
		Engine:   j.Engine,
		Seed:     j.Seed,
		Halted:   out.Halted,
		Reason:   out.Reason,
		Steps:    out.Steps,
		WallTime: time.Since(start),
		Payload:  out.Payload,
	}
	if err != nil {
		return res, fmt.Errorf("job: %s: %w", spec.Name, err)
	}
	return res, nil
}
