// Package schema defines the stable, versioned JSON wire format for
// analysis results, shared by the twca-serve HTTP responses and the
// twca-analyze -json output. The types here are the public contract:
// key names never change meaning within a schema version, new fields
// are only added (never repurposed), and any breaking change bumps
// Version. A golden-file test pins the exact serialization.
//
// Deliberately absent from the wire format: quantities that depend on
// solver-internal state rather than on the input system, such as
// branch-and-bound node counts — a response answered from a warm memo
// cache must be byte-identical to a cold one.
package schema

import (
	"context"

	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/sensitivity"
	"repro/internal/twca"
)

// Version is the current schema_version stamped into every document.
//
// Version history:
//   - 1: initial format.
//   - 2: adds "policy" (the canonical scheduling-policy name) to
//     Latency, Analysis and Sensitivity. Readers of version-1 documents
//     should treat an absent policy as "spp" — the only policy version 1
//     could describe.
const Version = 2

// DMMPoint is one dmm(k) evaluation.
type DMMPoint struct {
	K int64 `json:"k"`
	// DMM is the bound: at most this many of any K consecutive
	// executions miss their deadline.
	DMM int64 `json:"dmm"`
	// Exact is false when the solver hit its node cap and DMM is the
	// (still sound) relaxation bound.
	Exact bool `json:"exact"`
	// Trivial names the shortcut that answered the query without an ILP
	// solve ("schedulable", "typical-unschedulable", ...); empty when
	// the ILP ran.
	Trivial string `json:"trivial,omitempty"`
	// Omega is the Ω^a_b capacity of Lemma 4 for each overload chain,
	// on the wire an object keyed by chain name. The value
	// 9223372036854775807 (math.MaxInt64) means "unbounded" (sporadic
	// target activation).
	Omega Omega `json:"omega,omitempty"`
	// Quality names the degradation rung that produced this value:
	// "exact", "safe-upper-bound", or "trivial". Always emitted — a
	// consumer enforcing exactness must be able to reject degraded
	// values without guessing what an absent field means.
	Quality string `json:"quality"`
	// Budget names the exhausted budget that forced a degraded quality
	// ("deadline", "ilp-nodes", "combinations", ...); empty when exact.
	Budget string `json:"budget,omitempty"`
}

// Latency is the wire form of a §IV worst-case latency analysis.
type Latency struct {
	SchemaVersion int    `json:"schema_version"`
	Chain         string `json:"chain"`
	// Policy is the canonical scheduling-policy name the analysis ran
	// under ("spp", "np-spp", "edf"). Absent in version-1 documents,
	// which are always "spp".
	Policy          string  `json:"policy"`
	K               int64   `json:"busy_window_k"`
	BusyTimes       []int64 `json:"busy_times"`
	WCL             int64   `json:"wcl"`
	BCL             int64   `json:"bcl"`
	OutputJitter    int64   `json:"output_jitter"`
	CriticalQ       int64   `json:"critical_q"`
	MissesPerWindow int64   `json:"misses_per_window"`
	Schedulable     bool    `json:"schedulable"`
	// Quality/Budget tag degraded results exactly as in DMMPoint; a
	// "trivial" latency reports WCL = MaxInt64 and one miss per window.
	Quality string `json:"quality"`
	Budget  string `json:"budget,omitempty"`
}

// Analysis is the wire form of a §V deadline-miss-model analysis of one
// chain, with the dmm(k) evaluations the caller asked for.
type Analysis struct {
	SchemaVersion int    `json:"schema_version"`
	Chain         string `json:"chain"`
	// Policy is the canonical scheduling-policy name; see Latency.Policy.
	Policy             string `json:"policy"`
	Deadline           int64  `json:"deadline"`
	WCL                int64  `json:"wcl"`
	Schedulable        bool   `json:"schedulable"`
	TypicalSchedulable bool   `json:"typical_schedulable"`
	// MinSlack is min_q (δ-(q) + D − L(q)); 9223372036854775807 means
	// no busy window constrains it.
	MinSlack      int64 `json:"min_slack"`
	Combinations  int   `json:"combinations"`
	Unschedulable int   `json:"unschedulable_combinations"`
	// DMM holds the dmm(k) points requested explicitly; Breakpoints the
	// first k attaining each new value in a sweep (Table II form).
	DMM         []DMMPoint `json:"dmm,omitempty"`
	Breakpoints []DMMPoint `json:"breakpoints,omitempty"`
	// Error is set instead of the analysis fields when this chain's
	// analysis failed (multi-chain reports analyze chains
	// independently).
	Error string `json:"error,omitempty"`
	// Quality/Budget tag the construction-level degradation of the
	// analysis artifact itself; individual DMM points carry their own
	// (possibly worse) tags.
	Quality string `json:"quality"`
	Budget  string `json:"budget,omitempty"`
}

// TaskSlack is the per-task WCET slack of one task: WCETs may grow to
// Scale/ScaleDenom of nominal with the constraint still verified.
type TaskSlack struct {
	Task  string `json:"task"`
	Scale int64  `json:"scale"`
	// AtLimit is true when the search stopped at its bracket cap with
	// the constraint still holding (the true slack is ≥ Scale).
	AtLimit bool `json:"at_limit,omitempty"`
}

// SensitivityBreakdown is the overload tolerance of one overload chain:
// the largest extra activation jitter, and the smallest base
// inter-arrival distance, that keep the constraint verified.
type SensitivityBreakdown struct {
	Chain           string `json:"chain"`
	MaxExtraJitter  int64  `json:"max_extra_jitter"`
	JitterAtLimit   bool   `json:"jitter_at_limit,omitempty"`
	NominalDistance int64  `json:"nominal_distance,omitempty"`
	MinDistance     int64  `json:"min_distance,omitempty"`
	DistanceAtLimit bool   `json:"distance_at_limit,omitempty"`
}

// FrontierPoint is one point of the (m, k) feasibility frontier: min_m
// is the smallest m for which (m, k) is guaranteed, i.e. dmm(k).
type FrontierPoint struct {
	K    int64 `json:"k"`
	MinM int64 `json:"min_m"`
}

// Sensitivity is the wire form of a sensitivity query: how far the
// chain is from violating the weakly-hard constraint (m, k).
//
// Probes and Analyses are part of the wire format deliberately: they
// count predicate evaluations and distinct perturbed-system analyses of
// the query itself, which are deterministic for a given request — they
// do not reveal cache warmth (a probe answered from a warm store still
// counts as one analysis).
type Sensitivity struct {
	SchemaVersion int    `json:"schema_version"`
	Chain         string `json:"chain"`
	// Policy is the canonical scheduling-policy name; see Latency.Policy.
	Policy string `json:"policy"`
	M      int64  `json:"m"`
	K      int64  `json:"k"`
	// NominalDMM is dmm(k) of the unperturbed system: ≤ m, or the query
	// would have failed as infeasible, unless Quality is degraded. A
	// degraded value above m certifies nothing: every scale is 0 and
	// there is no breakdown.
	NominalDMM int64 `json:"nominal_dmm"`
	// ScaleDenom is the denominator all scale values refer to: a scale
	// of 1236 with denominator 1000 means WCETs may grow 23.6%.
	ScaleDenom     int64                  `json:"scale_denom"`
	UniformScale   int64                  `json:"uniform_scale"`
	UniformAtLimit bool                   `json:"uniform_at_limit,omitempty"`
	Tasks          []TaskSlack            `json:"tasks,omitempty"`
	Breakdown      []SensitivityBreakdown `json:"breakdown,omitempty"`
	Frontier       []FrontierPoint        `json:"frontier,omitempty"`
	Probes         int64                  `json:"probes"`
	Analyses       int64                  `json:"analyses"`
	// Quality/Budget carry the worst degradation observed across the
	// query's probes ("mixed" budget when probes degraded for different
	// reasons). Degraded probes under-report slack, never over-report.
	Quality string `json:"quality"`
	Budget  string `json:"budget,omitempty"`
}

// FromSensitivity converts a sensitivity result to its wire form.
func FromSensitivity(r *sensitivity.Result) Sensitivity {
	out := Sensitivity{
		SchemaVersion:  Version,
		Chain:          r.Chain,
		Policy:         policy.Canonical(r.Policy),
		M:              r.Constraint.M,
		K:              r.Constraint.K,
		NominalDMM:     r.NominalDMM,
		ScaleDenom:     r.ScaleDenom,
		UniformScale:   r.Uniform.Scale,
		UniformAtLimit: r.Uniform.AtLimit,
		Probes:         r.Probes,
		Analyses:       r.Analyses,
		Quality:        r.Quality.Quality.String(),
		Budget:         r.Quality.Budget,
	}
	for _, ts := range r.Tasks {
		out.Tasks = append(out.Tasks, TaskSlack{Task: ts.Task, Scale: ts.Scale, AtLimit: ts.AtLimit})
	}
	for _, b := range r.Breakdown {
		out.Breakdown = append(out.Breakdown, SensitivityBreakdown{
			Chain:           b.Chain,
			MaxExtraJitter:  int64(b.MaxExtraJitter),
			JitterAtLimit:   b.JitterAtLimit,
			NominalDistance: int64(b.NominalDistance),
			MinDistance:     int64(b.MinDistance),
			DistanceAtLimit: b.DistanceAtLimit,
		})
	}
	for _, p := range r.Frontier {
		out.Frontier = append(out.Frontier, FrontierPoint{K: p.K, MinM: p.MinM})
	}
	return out
}

// Report is a whole-system document: one Analysis per chain with a
// deadline, in system order, plus the content hash that identifies the
// input.
type Report struct {
	SchemaVersion int        `json:"schema_version"`
	System        string     `json:"system"`
	SystemHash    string     `json:"system_hash,omitempty"`
	Chains        []Analysis `json:"chains"`
}

// FromDMM converts one DMM evaluation.
func FromDMM(r twca.DMMResult) DMMPoint {
	return DMMPoint{
		K: r.K, DMM: r.Value, Exact: r.Exact, Trivial: r.Trivial, Omega: Omega(r.Omega),
		Quality: r.Quality.Quality.String(), Budget: r.Quality.Budget,
	}
}

// FromLatency converts a latency result.
func FromLatency(r *latency.Result) Latency {
	out := Latency{
		SchemaVersion:   Version,
		Chain:           r.Chain.Name,
		Policy:          policy.Canonical(r.Policy),
		K:               r.K,
		WCL:             int64(r.WCL),
		BCL:             int64(r.BCL),
		OutputJitter:    int64(r.OutputJitter()),
		CriticalQ:       r.CriticalQ,
		MissesPerWindow: r.MissesPerWindow,
		Schedulable:     r.Schedulable,
		Quality:         r.Quality.Quality.String(),
		Budget:          r.Quality.Budget,
	}
	out.BusyTimes = make([]int64, len(r.BusyTimes))
	for i, b := range r.BusyTimes {
		out.BusyTimes[i] = int64(b)
	}
	return out
}

// Stats carries solver-effort counters observed while a document was
// built. They are deliberately not part of the wire format (cache
// warmth must be invisible in responses); the analysis service feeds
// them into /metrics instead.
type Stats struct {
	// ILPNodes is the total number of branch-and-bound nodes explored
	// by the dmm evaluations behind the document (0 when every query
	// was answered trivially or from the memo cache).
	ILPNodes int64
	// Degraded counts the dmm points answered below Exact quality,
	// keyed by the exhausted budget; nil when everything was exact.
	Degraded map[string]int64
}

// noteDegraded records one degraded point under its budget.
func (st *Stats) noteDegraded(budget string) {
	if st.Degraded == nil {
		st.Degraded = make(map[string]int64)
	}
	st.Degraded[budget]++
}

// FromAnalysis converts a prepared TWCA analysis, evaluating dmm(k) at
// each requested k and, when breakpointsMaxK > 0, sweeping breakpoints
// up to it. The context governs those evaluations.
func FromAnalysis(ctx context.Context, an *twca.Analysis, ks []int64, breakpointsMaxK int64) (Analysis, error) {
	doc, _, err := FromAnalysisStats(ctx, an, ks, breakpointsMaxK)
	return doc, err
}

// FromAnalysisStats is FromAnalysis, additionally reporting the solver
// effort spent answering the queries.
func FromAnalysisStats(ctx context.Context, an *twca.Analysis, ks []int64, breakpointsMaxK int64) (Analysis, Stats, error) {
	out := Analysis{
		SchemaVersion:      Version,
		Chain:              an.Target.Name,
		Policy:             policy.Canonical(an.Latency.Policy),
		Deadline:           int64(an.Target.Deadline),
		WCL:                int64(an.Latency.WCL),
		Schedulable:        an.Latency.Schedulable,
		TypicalSchedulable: an.TypicalSchedulable,
		MinSlack:           int64(an.MinSlack),
		Combinations:       len(an.Combinations),
		Unschedulable:      len(an.Unschedulable),
		Quality:            an.Degraded.Quality.String(),
		Budget:             an.Degraded.Budget,
	}
	var st Stats
	if len(ks) > 0 {
		out.DMM = make([]DMMPoint, 0, len(ks))
	}
	// Every point's Ω is carved from one slab and capped, so that an
	// append to one cannot overwrite the next.
	slab := make([]twca.OmegaEntry, 0, len(ks)*an.NumOmegas())
	for _, k := range ks {
		r, err := an.DMMValueCtx(ctx, k)
		if err != nil {
			return Analysis{}, st, err
		}
		st.ILPNodes += r.ILPNodes
		if r.Quality.Degraded() {
			st.noteDegraded(r.Quality.Budget)
		}
		p := FromDMM(r)
		if an.NumOmegas() > 0 {
			n := len(slab)
			slab = an.AppendOmegas(slab, k)
			p.Omega = slab[n:len(slab):len(slab)]
		}
		out.DMM = append(out.DMM, p)
	}
	if breakpointsMaxK > 0 {
		bps, err := an.BreakpointsCtx(ctx, breakpointsMaxK)
		if err != nil {
			return Analysis{}, st, err
		}
		out.Breakpoints = make([]DMMPoint, 0, len(bps))
		for _, r := range bps {
			st.ILPNodes += r.ILPNodes
			if r.Quality.Degraded() {
				st.noteDegraded(r.Quality.Budget)
			}
			out.Breakpoints = append(out.Breakpoints, FromDMM(r))
		}
	}
	return out, st, nil
}

// FromSystem builds a whole-system Report: every regular chain with a
// deadline is analyzed (serially, in system order) and converted.
// Per-chain analysis failures become Error entries rather than failing
// the report, matching the twca-analyze table behavior.
func FromSystem(ctx context.Context, sys *model.System, opts twca.Options, ks []int64, breakpointsMaxK int64) (Report, error) {
	rep := Report{SchemaVersion: Version, System: sys.Name}
	if h, err := model.CanonicalHash(sys); err == nil {
		rep.SystemHash = h
	}
	for _, c := range sys.RegularChains() {
		if c.Deadline == 0 {
			continue
		}
		an, err := twca.NewCtx(ctx, sys, c, opts)
		if err != nil {
			if ctx.Err() != nil {
				return Report{}, err // cancellation fails the report, not the chain
			}
			rep.Chains = append(rep.Chains, Analysis{
				SchemaVersion: Version, Chain: c.Name, Policy: opts.PolicyName(),
				Deadline: int64(c.Deadline), Error: err.Error(),
			})
			continue
		}
		doc, err := FromAnalysis(ctx, an, ks, breakpointsMaxK)
		if err != nil {
			return Report{}, err
		}
		rep.Chains = append(rep.Chains, doc)
	}
	return rep, nil
}

// Campaign line kinds. A /v1/campaign stream emits one CampaignLine per
// NDJSON line: a result line per item (kind "dmm" or "latency"), a
// "campaign_partial" line for each failed item, and one final "summary"
// line.
const (
	CampaignKindDMM     = "dmm"
	CampaignKindLatency = "latency"
	CampaignKindPartial = "campaign_partial"
	CampaignKindSummary = "summary"
)

// CampaignLine is one NDJSON line of a /v1/campaign stream. Exactly one
// of Analysis and Latency is set on a result line; Error/Cause are set
// on campaign_partial lines; Items/Failed on the summary line. Index is
// the item's position in the request (lines are emitted in request
// order; the summary carries Index == Items). The embedded Analysis /
// Latency documents are byte-identical to what the unary endpoints
// return for the same item — batching, like cache warmth, must be
// invisible in the document.
type CampaignLine struct {
	SchemaVersion int    `json:"schema_version"`
	Index         int    `json:"index"`
	ID            string `json:"id,omitempty"`
	Kind          string `json:"kind"`
	SystemHash    string `json:"system_hash,omitempty"`
	// Cache is the artifact-store outcome that produced this line
	// ("hit", "miss", "coalesced" — as observed on the replica that
	// owned the artifact). Envelope metadata, not part of the analysis
	// document.
	Cache    string    `json:"cache,omitempty"`
	Analysis *Analysis `json:"analysis,omitempty"`
	Latency  *Latency  `json:"latency,omitempty"`
	// Error/Cause describe a failed item: Cause is the sentinel kind
	// from the service error taxonomy ("unschedulable", "no_chain",
	// "deadline_exceeded", ...), Error the human-readable message.
	Error string `json:"error,omitempty"`
	Cause string `json:"cause,omitempty"`
	// Items/Failed summarize the stream on the final summary line.
	Items  int `json:"items,omitempty"`
	Failed int `json:"failed,omitempty"`
}
