// Package sched is the pluggable scheduler and fault-injection layer of
// the three engines. The paper's guarantees — Theorem 1's r0 >= n/2
// w.h.p., every termination claim — are proved under a *fair uniform*
// pair scheduler; this package turns that assumption into an explicit,
// varied input instead of a property baked into the engines' hot loops.
//
// Two ideas compose:
//
//   - A Scheduler is the pair-selection policy. Uniform is the default
//     and reproduces the engines' historical RNG stream byte-for-byte (a
//     nil or zero Profile never touches the hot path at all). Weighted
//     gives agents individual activity rates, Clustered prefers
//     block-local partners, and AdversarialDelay starves a chosen agent
//     set for up to a fairness bound before being forced to serve it.
//
//   - A fault model layers on top, following the fair_cons crash-budget
//     shape: crash-stop and crash-recovery agents, "frozen"
//     (interaction-free) agents, and population churn (arrivals and
//     departures mid-run). Fault events are a deterministic marked point
//     process on the scheduler's step clock, driven by a dedicated RNG
//     (Clock) so the fault timeline is independent of the interaction
//     stream and snapshots restore both exactly.
//
// Everything is configured by one schema-validated Profile that rides in
// job.Params, so every scheduler/fault combination is daemon-submittable,
// cacheable via the job CacheKey, and restartable from a snapshot.
//
// Not every engine expresses every policy. The exact engine
// (internal/pop) keeps agent identities and is the reference: all four
// schedulers and all fault kinds. The urn engine compresses identities
// into state counts, so Weighted becomes slot-weight multipliers on its
// samplers (activity rates attach to state classes in order of first
// appearance, not to agent ids) and Clustered/AdversarialDelay — which
// need ids — are rejected at validation. The geometric engine
// (internal/sim) draws pairs from geometry, so AdversarialDelay becomes a
// veto model, Clustered scales the inter-component category weight, and
// Weighted is rejected. The exhaustive engine (internal/check) reasons
// about every fair execution at once, so only policies with a fair-limit
// reading apply: Uniform is a no-op and AdversarialDelay a transition
// veto; probabilistic policies and all fault clocks are rejected.
// Validate enforces the matrix with field-level errors.
package sched

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Engine names, mirroring the job layer's engine identifiers (the two
// packages cannot import each other; the strings are the contract).
const (
	EnginePop   = "pop"
	EngineUrn   = "urn"
	EngineSim   = "sim"
	EngineCheck = "check"
)

// Scheduler kinds, the values of Profile.Scheduler.
const (
	KindUniform          = "uniform"
	KindWeighted         = "weighted"
	KindClustered        = "clustered"
	KindAdversarialDelay = "adversarial-delay"
)

// Profile is the wire-format scheduler + fault configuration of one run.
// The zero value (or a profile that normalizes to it) means "the default
// uniform scheduler, no faults" and leaves the engines' historical code
// paths untouched. All fields are integers so profiles hash canonically
// into the job cache key.
type Profile struct {
	// Scheduler selects the pair-selection policy: "uniform" (default),
	// "weighted", "clustered" or "adversarial-delay".
	Scheduler string `json:"scheduler,omitempty"`
	// Rates are the per-agent activity rates of the weighted scheduler:
	// agent id gets Rates[id mod len(Rates)]. On the urn engine the rates
	// attach to state classes in order of first appearance instead (agent
	// ids are compressed away). Each rate must be in [1, 1000].
	Rates []int64 `json:"rates,omitempty"`
	// BlockSize is the clustered scheduler's block width: agents i and j
	// are block-local when i/BlockSize == j/BlockSize. Default 32.
	BlockSize int64 `json:"block_size,omitempty"`
	// BiasPct is the clustered scheduler's probability (percent) of
	// preferring a block-local partner. Default 75.
	BiasPct int64 `json:"bias_pct,omitempty"`
	// StarvePct is the percentage of the founding population (the id
	// prefix) the adversarial scheduler starves. Default 10.
	StarvePct int64 `json:"starve_pct,omitempty"`
	// FairnessBound is the maximum number of scheduler steps the starved
	// set can go unserved before the adversary must schedule one of its
	// agents (the weak-fairness escape hatch). Default 2^20.
	FairnessBound int64 `json:"fairness_bound,omitempty"`

	// FaultSeed seeds the dedicated fault-event RNG; 0 derives a seed
	// from the job seed, so trial sweeps vary the fault timeline with the
	// interaction stream.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// CrashEvery is the mean number of scheduler steps between crash
	// events (exponential gaps); 0 disables crashes. A crashed agent
	// keeps its state but interacts no more.
	CrashEvery int64 `json:"crash_every,omitempty"`
	// MaxCrashes caps the number of crash events (the fair_cons crash
	// budget F); 0 means unbounded.
	MaxCrashes int64 `json:"max_crashes,omitempty"`
	// RecoverEvery is the mean gap between recovery events, each reviving
	// one crashed agent (crash-recovery model); 0 makes crashes
	// crash-stop.
	RecoverEvery int64 `json:"recover_every,omitempty"`
	// FreezeEvery / ThawEvery are the frozen-agent (message-free)
	// counterparts of CrashEvery / RecoverEvery.
	FreezeEvery int64 `json:"freeze_every,omitempty"`
	ThawEvery   int64 `json:"thaw_every,omitempty"`
	// ArriveEvery / DepartEvery drive population churn: each arrival adds
	// one fresh agent in its protocol initial state, each departure
	// removes one present agent for good.
	ArriveEvery int64 `json:"arrive_every,omitempty"`
	DepartEvery int64 `json:"depart_every,omitempty"`
	// MaxChurn caps the combined number of arrival + departure events; 0
	// means unbounded.
	MaxChurn int64 `json:"max_churn,omitempty"`
}

// IsZero reports whether the profile is the no-op configuration: the
// uniform scheduler with no fault clocks. The job layer collapses such
// profiles to nil so they share cache identity (and RNG stream) with
// profile-less jobs.
func (p Profile) IsZero() bool {
	return (p.Scheduler == "" || p.Scheduler == KindUniform) &&
		len(p.Rates) == 0 && p.BlockSize == 0 && p.BiasPct == 0 &&
		p.StarvePct == 0 && p.FairnessBound == 0 && p.FaultSeed == 0 &&
		!p.HasFaults()
}

// HasFaults reports whether any fault clock is enabled.
func (p Profile) HasFaults() bool {
	return p.CrashEvery > 0 || p.RecoverEvery > 0 || p.FreezeEvery > 0 ||
		p.ThawEvery > 0 || p.ArriveEvery > 0 || p.DepartEvery > 0
}

// FieldError is one field-level validation failure of a Profile.
type FieldError struct {
	Field string `json:"field"`
	Msg   string `json:"error"`
}

// Error implements error.
func (e FieldError) Error() string { return e.Field + ": " + e.Msg }

// ValidationError aggregates every field-level failure of one Validate
// pass, so API clients can surface all problems at once.
type ValidationError struct {
	// Of names what was invalid; empty means a fault profile.
	Of     string
	Fields []FieldError
}

// Error implements error.
func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		msgs[i] = f.Error()
	}
	of := e.Of
	if of == "" {
		of = "fault profile"
	}
	return "invalid " + of + ": " + strings.Join(msgs, "; ")
}

// maxRate bounds individual weighted rates; maxRateMass bounds n times
// the largest rate so the urn engine's total pair weight (sum m_i c_i)^2
// stays clear of int64 overflow.
const (
	maxRate     = 1000
	maxRateMass = 3_000_000_000
)

// schedulerEngines is the support matrix: which engines express which
// pair-selection policies. Fault clocks are supported on every engine.
var schedulerEngines = map[string][]string{
	KindUniform:          {EnginePop, EngineUrn, EngineSim, EngineCheck},
	KindWeighted:         {EnginePop, EngineUrn},
	KindClustered:        {EnginePop, EngineSim},
	KindAdversarialDelay: {EnginePop, EngineSim, EngineCheck},
}

// Normalize fills the profile's defaults and validates it for a run on
// the given engine with founding population n. It returns the fully
// resolved profile — two profiles normalizing to equal values describe
// the same scheduler/fault behavior, which is what the job cache key
// folds in. On failure the error is a *ValidationError carrying one
// entry per offending field.
func (p Profile) Normalize(engine string, n int) (Profile, error) {
	var errs []FieldError
	fail := func(field, format string, args ...any) {
		errs = append(errs, FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}

	if p.Scheduler == "" {
		p.Scheduler = KindUniform
	}
	supported, known := schedulerEngines[p.Scheduler]
	if !known {
		fail("scheduler", "unknown scheduler %q (have uniform, weighted, clustered, adversarial-delay)", p.Scheduler)
	} else {
		ok := false
		for _, e := range supported {
			ok = ok || e == engine
		}
		if !ok {
			fail("scheduler", "%s is not supported on the %s engine (supported: %s)",
				p.Scheduler, engine, strings.Join(supported, ", "))
		}
	}

	// Weighted: rates required; forbidden elsewhere.
	if p.Scheduler == KindWeighted {
		if len(p.Rates) == 0 {
			fail("rates", "the weighted scheduler requires at least one rate")
		}
		var max int64
		for i, r := range p.Rates {
			if r < 1 || r > maxRate {
				fail("rates", "rate %d at index %d out of range [1, %d]", r, i, maxRate)
				break
			}
			if r > max {
				max = r
			}
		}
		if engine == EngineUrn && int64(n)*max > maxRateMass {
			fail("rates", "n * max rate = %d exceeds %d (urn pair-weight overflow bound)", int64(n)*max, int64(maxRateMass))
		}
	} else if len(p.Rates) > 0 {
		fail("rates", "only valid with the weighted scheduler")
	}

	// Clustered: block size and bias.
	if p.Scheduler == KindClustered {
		if p.BlockSize == 0 {
			p.BlockSize = 32
		}
		if p.BlockSize < 2 || p.BlockSize > 1<<20 {
			fail("block_size", "%d out of range [2, %d]", p.BlockSize, 1<<20)
		}
		if p.BiasPct == 0 {
			p.BiasPct = 75
		}
		if p.BiasPct < 0 || p.BiasPct > 100 {
			fail("bias_pct", "%d out of range [0, 100]", p.BiasPct)
		}
	} else {
		if p.BlockSize != 0 {
			fail("block_size", "only valid with the clustered scheduler")
		}
		if p.BiasPct != 0 {
			fail("bias_pct", "only valid with the clustered scheduler")
		}
	}

	// Adversarial delay: starved prefix and fairness bound.
	if p.Scheduler == KindAdversarialDelay {
		if p.StarvePct == 0 {
			p.StarvePct = 10
		}
		if p.StarvePct < 1 || p.StarvePct > 90 {
			fail("starve_pct", "%d out of range [1, 90]", p.StarvePct)
		}
		if p.FairnessBound == 0 {
			p.FairnessBound = 1 << 20
		}
		if p.FairnessBound < 1 {
			fail("fairness_bound", "%d must be >= 1", p.FairnessBound)
		}
	} else {
		if p.StarvePct != 0 {
			fail("starve_pct", "only valid with the adversarial-delay scheduler")
		}
		if p.FairnessBound != 0 {
			fail("fairness_bound", "only valid with the adversarial-delay scheduler")
		}
	}

	// Fault clocks. The check engine reasons about all executions at
	// once; fault clocks are probabilistic timelines on one execution and
	// have no fair-limit reading, so each enabled clock is an error there.
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"crash_every", p.CrashEvery}, {"recover_every", p.RecoverEvery},
		{"freeze_every", p.FreezeEvery}, {"thaw_every", p.ThawEvery},
		{"arrive_every", p.ArriveEvery}, {"depart_every", p.DepartEvery},
	} {
		if f.v < 0 {
			fail(f.name, "%d must be >= 0", f.v)
		} else if f.v > 0 && engine == EngineCheck {
			fail(f.name, "fault clocks are not supported on the check engine")
		}
	}
	if p.RecoverEvery > 0 && p.CrashEvery <= 0 {
		fail("recover_every", "requires crash_every > 0")
	}
	if p.ThawEvery > 0 && p.FreezeEvery <= 0 {
		fail("thaw_every", "requires freeze_every > 0")
	}
	if p.MaxCrashes < 0 {
		fail("max_crashes", "%d must be >= 0", p.MaxCrashes)
	} else if p.MaxCrashes > 0 && p.CrashEvery <= 0 {
		fail("max_crashes", "requires crash_every > 0")
	}
	if p.MaxChurn < 0 {
		fail("max_churn", "%d must be >= 0", p.MaxChurn)
	} else if p.MaxChurn > 0 && p.ArriveEvery <= 0 && p.DepartEvery <= 0 {
		fail("max_churn", "requires arrive_every or depart_every > 0")
	}
	if p.FaultSeed != 0 && !p.HasFaults() {
		fail("fault_seed", "requires at least one fault event rate")
	}

	if len(errs) > 0 {
		sort.SliceStable(errs, func(i, j int) bool { return errs[i].Field < errs[j].Field })
		return p, &ValidationError{Fields: errs}
	}
	return p, nil
}

// Key renders the normalized profile as a canonical cache-key fragment:
// every field in fixed order, so equal profiles render equal bytes.
func (p Profile) Key() string {
	var sb strings.Builder
	sb.WriteString("sched=")
	sb.WriteString(p.Scheduler)
	sb.WriteString(";rates=")
	for i, r := range p.Rates {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatInt(r, 10))
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"block", p.BlockSize}, {"bias", p.BiasPct}, {"starve", p.StarvePct},
		{"fair", p.FairnessBound}, {"fseed", p.FaultSeed},
		{"crash", p.CrashEvery}, {"maxcrash", p.MaxCrashes},
		{"recover", p.RecoverEvery}, {"freeze", p.FreezeEvery},
		{"thaw", p.ThawEvery}, {"arrive", p.ArriveEvery},
		{"depart", p.DepartEvery}, {"maxchurn", p.MaxChurn},
	} {
		sb.WriteByte(';')
		sb.WriteString(f.name)
		sb.WriteByte('=')
		sb.WriteString(strconv.FormatInt(f.v, 10))
	}
	return sb.String()
}

// FieldSpec describes one Profile field for API discovery (the daemon's
// /v1/protocols listing).
type FieldSpec struct {
	Name    string   `json:"name"`
	Type    string   `json:"type"` // "string", "int" or "[]int"
	Usage   string   `json:"usage"`
	Enum    []string `json:"enum,omitempty"`
	Engines []string `json:"engines,omitempty"` // empty: all engines
}

// Schema enumerates every Profile field with its type, constraint
// summary and engine support, so clients can discover valid profiles
// instead of guessing.
func Schema() []FieldSpec {
	return []FieldSpec{
		{Name: "scheduler", Type: "string", Usage: "pair-selection policy (default uniform)",
			Enum: []string{KindUniform, KindWeighted, KindClustered, KindAdversarialDelay}},
		{Name: "rates", Type: "[]int", Usage: "weighted: per-agent activity rates in [1,1000], agent id mod len (urn: per state class in appearance order)",
			Engines: schedulerEngines[KindWeighted]},
		{Name: "block_size", Type: "int", Usage: "clustered: block width (default 32)",
			Engines: schedulerEngines[KindClustered]},
		{Name: "bias_pct", Type: "int", Usage: "clustered: percent preference for block-local partners (default 75)",
			Engines: schedulerEngines[KindClustered]},
		{Name: "starve_pct", Type: "int", Usage: "adversarial-delay: percent of founding ids starved (default 10)",
			Engines: schedulerEngines[KindAdversarialDelay]},
		{Name: "fairness_bound", Type: "int", Usage: "adversarial-delay: max steps the starved set goes unserved (default 2^20)",
			Engines: schedulerEngines[KindAdversarialDelay]},
		{Name: "fault_seed", Type: "int", Usage: "fault-event RNG seed; 0 derives from the job seed"},
		{Name: "crash_every", Type: "int", Usage: "mean steps between crash events; 0 disables"},
		{Name: "max_crashes", Type: "int", Usage: "crash budget; 0 unbounded"},
		{Name: "recover_every", Type: "int", Usage: "mean steps between recoveries; 0 makes crashes crash-stop"},
		{Name: "freeze_every", Type: "int", Usage: "mean steps between freeze events; 0 disables"},
		{Name: "thaw_every", Type: "int", Usage: "mean steps between thaw events"},
		{Name: "arrive_every", Type: "int", Usage: "mean steps between agent arrivals; 0 disables"},
		{Name: "depart_every", Type: "int", Usage: "mean steps between agent departures; 0 disables"},
		{Name: "max_churn", Type: "int", Usage: "combined arrival+departure budget; 0 unbounded"},
	}
}

// RunDefaults fills the run-cadence defaults shared by every engine's
// option struct: a zero MaxSteps becomes defMaxSteps and a zero
// CheckEvery becomes 256 (the cancellation/progress cadence all three
// engines agree on). The scheduler layer owns this because the cadence is
// also the fault-application boundary.
func RunDefaults(maxSteps, checkEvery *int64, defMaxSteps int64) {
	if *maxSteps == 0 {
		*maxSteps = defMaxSteps
	}
	if *checkEvery == 0 {
		*checkEvery = 256
	}
}
