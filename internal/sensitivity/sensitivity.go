// Package sensitivity answers the inverse of the paper's Theorem 3
// question. A DMM analysis certifies a weakly-hard constraint (m, k)
// for a chain — a yes/no artifact. Practitioners ask how far the system
// is from the boundary: how much WCET headroom does the implementation
// have, how much more overload jitter survives, which (m, k) points are
// feasible at all. Each of those is a monotone predicate over perturbed
// copies of the system ("does the constraint still verify after scaling
// WCETs by s/denom?"), so one generic cancelable bisection driver
// answers them all:
//
//   - WCET slack: the largest uniform (and per-task) scaling factor,
//     in integer quanta of 1/ScaleDenom, such that the constraint still
//     verifies. One quantum beyond the reported factor fails.
//   - Breakdown jitter / distance: per overload chain, the largest
//     extra release jitter — and the smallest base inter-arrival
//     distance — the constraint survives.
//   - (m, k) frontier: the minimal feasible m for each k in a range,
//     i.e. dmm(k); everything on or above the frontier is guaranteed.
//
// The engine is incremental: probes are addressed by perturbation
// coordinate (axis, subject, value), and a WarmStore retains completed
// probe analyses across queries. A re-probed coordinate is answered
// from the store without re-materializing or re-hashing the perturbed
// system; a fresh coordinate is solved from scratch. Each bisection
// evaluates a batch of speculative candidate probes through
// internal/parallel. One read-locked pass over the warm store fetches
// the stored outcomes of a whole batch first; the batch then runs
// concurrently when a candidate needs solving, one at a time when the
// store answered every candidate (a stored answer is cheaper than the
// fan-out). The store also retains each base system's nominal, so a
// caller holding it (WarmStore.Nominal) skips decoding and, through
// Engine.BaseHash, re-hashing it. All of this is effort-only machinery:
// results are byte-identical for any worker count, any cache state and
// any store warmth (Options.NoWarmStart pins the cold path for
// benchmarks and equivalence tests).
//
// The driver fans independent metrics out across the internal/parallel
// pool. Each query keeps one memo of its fresh analyses, keyed by the
// perturbed system's canonical content hash (model.CanonicalHash), so
// coordinates that materialize the same system share one analysis, and
// a list of the outcomes it took from the warm store, which warm probes
// append to without touching the memo. Result.Analyses is charged when
// a hash enters the memo and, once every probe is done, for each taken
// hash the memo and the earlier taken outcomes do not carry; an
// unhashable system is charged once per analysis. So it counts distinct
// systems, whatever the probe order, worker count or store warmth. The
// analysis service plugs its admission gate in through the AnalyzeFunc
// hook, so only probes that solve take a slot.
package sensitivity

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/curves"
	"repro/internal/degrade"
	"repro/internal/faultinject"
	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/twca"
	"repro/internal/weaklyhard"
)

// ErrInfeasibleConstraint reports that the weakly-hard constraint does
// not verify on the nominal (unperturbed) system: the exact dmm(k) > m,
// so there is no slack to measure. Query the (m, k) frontier to find
// the constraints that are feasible. A degraded nominal above m is not
// this error; see Result.NominalDMM.
var ErrInfeasibleConstraint = errors.New("sensitivity: constraint is infeasible on the nominal system")

// ErrInvalidOptions reports a query Engine.Query rejects before any
// analysis runs: option values Options.Validate refuses, or a Tasks
// entry that names no task of the system.
var ErrInvalidOptions = errors.New("sensitivity: options")

// AnalyzeFunc produces the prepared DMM analysis of one (possibly
// perturbed) system. The engine calls it once per distinct perturbed
// system; nil selects twca.NewCtx directly. A caller may substitute
// a function that admits, counts, instruments or caches probe analyses
// (the analysis service takes an admission slot for each solve).
//
// hash is the system's canonical content hash (model.CanonicalHash),
// computed once by the engine so caching layers can key on it without
// re-serializing the system; it is empty when the system has no JSON
// form (and is then uncacheable by content).
type AnalyzeFunc func(ctx context.Context, sys *model.System, hash string, chain string, opts twca.Options) (*twca.Analysis, error)

// Options tunes a sensitivity query. The zero value of every field but
// Constraint selects the documented defaults.
type Options struct {
	// Constraint is the weakly-hard (m, k) requirement the query
	// measures slack against. It must be valid (0 ≤ m < k).
	Constraint weaklyhard.Constraint
	// ScaleDenom is the denominator of WCET scaling factors: slack is
	// reported as the largest integer numerator S such that scaling by
	// S/ScaleDenom keeps the constraint verified (default 1000, i.e.
	// per-mille quanta).
	ScaleDenom int64
	// MaxScale caps the numerator search (default 64·ScaleDenom). A
	// result at the cap is reported with AtLimit.
	MaxScale int64
	// MaxJitter caps the breakdown-jitter search per overload chain
	// (default: 64× the chain's nominal base distance).
	MaxJitter curves.Time
	// FrontierMaxK, when > 0, computes the (m, k) feasibility frontier
	// for k in [1, FrontierMaxK].
	FrontierMaxK int64
	// Tasks names the tasks to compute per-task WCET slack for; nil
	// selects every task in the system, in system order.
	Tasks []string
	// Workers bounds the parallel fan-out over independent metrics and
	// over the speculative probe batches inside each bisection (≤ 0
	// selects runtime.GOMAXPROCS(0)).
	Workers int
	// NoWarmStart bypasses the warm store for this query: it is neither
	// consulted nor populated, and every probe is solved. Results are
	// byte-identical either way — the option exists to measure what the
	// store saves and to pin the equivalence in tests and in the
	// service API.
	NoWarmStart bool
}

// frontierMaxKCap bounds FrontierMaxK: each frontier point is a dmm
// query, and a runaway range would turn one request into millions of
// solves.
const frontierMaxKCap = 1 << 20

// batchWidth is the number of speculative candidates each bracketing or
// bisection round evaluates concurrently. It is a fixed constant — NOT
// derived from Workers — so the probe sequence (and the Probes counter)
// is identical for every worker count; Workers only bounds how many of
// a batch's candidates actually run at once.
const batchWidth = 4

// Validate rejects nonsensical option values with a descriptive error.
func (o Options) Validate() error {
	if !o.Constraint.Valid() {
		return fmt.Errorf("%w: invalid constraint %v: need 0 ≤ m < k", ErrInvalidOptions, o.Constraint)
	}
	if o.ScaleDenom < 0 {
		return fmt.Errorf("%w: ScaleDenom %d is negative (0 selects the default 1000)", ErrInvalidOptions, o.ScaleDenom)
	}
	if o.MaxScale < 0 {
		return fmt.Errorf("%w: MaxScale %d is negative (0 selects the default 64·ScaleDenom)", ErrInvalidOptions, o.MaxScale)
	}
	if o.MaxJitter < 0 {
		return fmt.Errorf("%w: MaxJitter %d is negative (0 selects the default 64× nominal distance)", ErrInvalidOptions, o.MaxJitter)
	}
	if o.FrontierMaxK < 0 {
		return fmt.Errorf("%w: FrontierMaxK %d is negative (0 skips the frontier)", ErrInvalidOptions, o.FrontierMaxK)
	}
	if o.FrontierMaxK > frontierMaxKCap {
		return fmt.Errorf("%w: FrontierMaxK %d exceeds the limit %d", ErrInvalidOptions, o.FrontierMaxK, frontierMaxKCap)
	}
	if o.MaxScale > 0 && o.ScaleDenom > 0 && o.MaxScale < o.ScaleDenom {
		return fmt.Errorf("%w: MaxScale %d is below ScaleDenom %d (scale 1.0)", ErrInvalidOptions, o.MaxScale, o.ScaleDenom)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.ScaleDenom == 0 {
		o.ScaleDenom = 1000
	}
	if o.MaxScale == 0 {
		o.MaxScale = 64 * o.ScaleDenom
	}
	return o
}

// Slack is one WCET-scaling result: the largest numerator Scale such
// that multiplying the scoped WCETs by Scale/ScaleDenom keeps the
// constraint verified. Scaling by (Scale+1)/ScaleDenom fails unless
// AtLimit reports that the search stopped at MaxScale with the
// constraint still holding.
type Slack struct {
	Scale   int64
	AtLimit bool
}

// TaskSlack is the per-task WCET slack of one task.
type TaskSlack struct {
	Task string
	Slack
}

// Breakdown is the overload tolerance of one overload chain.
type Breakdown struct {
	// Chain names the overload chain whose event model was perturbed.
	Chain string
	// MaxExtraJitter is the largest additional release jitter on the
	// chain's activation that keeps the constraint verified; one more
	// time unit fails unless JitterAtLimit (search stopped at the
	// MaxJitter bracket).
	MaxExtraJitter curves.Time
	JitterAtLimit  bool
	// NominalDistance is the chain's base inter-arrival distance
	// (sporadic minimum distance, periodic period, burst outer period)
	// and MinDistance the smallest value of it that keeps the constraint
	// verified; one time unit less fails unless DistanceAtLimit (the
	// constraint survives even distance 1). Both are 0 when the
	// activation model has no base distance to perturb.
	NominalDistance curves.Time
	MinDistance     curves.Time
	DistanceAtLimit bool
}

// FrontierPoint is one point of the (m, k) feasibility frontier: MinM
// is the smallest m such that (m, K) is guaranteed, i.e. dmm(K).
type FrontierPoint struct {
	K    int64
	MinM int64
}

// Result is the outcome of one sensitivity query.
type Result struct {
	Chain      string
	Constraint weaklyhard.Constraint
	// Policy is the canonical scheduling-policy name every probe was
	// analyzed under (the query's twca.Options resolve to exactly one).
	Policy string
	// NominalDMM is dmm(k) on the unperturbed system, ≤ m unless the
	// nominal analysis degraded (see Quality); an exact value above m
	// fails the query with ErrInfeasibleConstraint. A degraded value
	// above m proves nothing, so that result certifies nothing: its
	// Uniform and Tasks scales are 0, Breakdown is empty and Frontier
	// holds the degraded dmm(k) values.
	NominalDMM int64
	// ScaleDenom echoes the quantum denominator the Scale numerators in
	// Uniform and Tasks refer to.
	ScaleDenom int64
	// Uniform is the system-wide WCET slack; Tasks the per-task slack in
	// query order.
	Uniform Slack
	Tasks   []TaskSlack
	// Breakdown holds the overload tolerances, one entry per overload
	// chain in system order; empty when the result certifies nothing
	// (see NominalDMM).
	Breakdown []Breakdown
	// Frontier is the (m, k) feasibility frontier for k in
	// [1, FrontierMaxK]; nil when FrontierMaxK was 0.
	Frontier []FrontierPoint
	// Probes counts predicate evaluations (bracketing plus bisection
	// steps) and Analyses the distinct perturbed systems, by content
	// hash, behind them — solved afresh or taken from the warm store
	// alike; an unhashable system counts once per analysis. Both are
	// deterministic for a given query, independent of worker count,
	// cache warmth and warm-store state.
	Probes   int64
	Analyses int64
	// Quality is the worst degradation observed across the nominal
	// analysis and every probe. A degraded probe over-approximates the
	// DMM, which can only flip "holds" to "does not hold" — so slack
	// figures computed from degraded probes under-report the headroom
	// but never over-promise it. When probes degraded for different
	// reasons, Budget/Rung read "mixed" (the aggregation is order-free
	// so results stay byte-identical across worker counts).
	Quality degrade.Info
}

// Engine runs sensitivity queries. The zero value analyzes directly
// with twca.NewCtx; set Analyze to intercept probe analyses.
type Engine struct {
	Analyze AnalyzeFunc
	// Warm retains probe analyses across queries, so a repeated
	// coordinate is not solved again. Nil gives each query a private
	// store; share one store (NewWarmStore) to carry the outcomes across
	// queries, as the analysis service and cmd/twca-sensitivity do.
	Warm *WarmStore
	// BaseHash optionally names the canonical hash (model.CanonicalHash)
	// of the system passed to Query, as a caller holding Warm.Nominal's
	// system knows it. It is trusted only when Warm retains that very
	// *System as the nominal of BaseHash; otherwise the engine hashes the
	// system itself, so a wrong value costs time, never a result.
	BaseHash string
}

// Query measures the sensitivity of chain's weakly-hard constraint in
// sys. aopts configures the underlying DMM analyses exactly as in
// twca.New; opts selects the metrics and search brackets. The result is
// deterministic: byte-identical for any Workers value, any cache state
// behind Analyze, and any warm-store state (a stored outcome is the
// outcome a solve would produce).
//
// The constraint must verify on the nominal system, or the query fails
// with an error wrapping ErrInfeasibleConstraint. When the nominal
// analysis degraded (only with aopts.Degrade allowed) and its dmm(k)
// exceeds m, the query instead returns a result that certifies nothing,
// tagged with the nominal's quality (see Result.NominalDMM).
func (e Engine) Query(ctx context.Context, sys *model.System, chain string, aopts twca.Options, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	target := sys.ChainByName(chain)
	if target == nil {
		return nil, fmt.Errorf("sensitivity: no chain named %q", chain)
	}
	for _, name := range opts.Tasks {
		if !hasTask(sys, name) {
			return nil, fmt.Errorf("%w: no task named %q", ErrInvalidOptions, name)
		}
	}
	q := &query{
		analyze: e.Analyze,
		byHash:  make(map[string]*memoEntry),
		sys:     sys,
		chain:   chain,
		aopts:   aopts,
		c:       opts.Constraint,
		denom:   opts.ScaleDenom,
	}
	q.bp = batcher{width: batchWidth, workers: opts.Workers, take: q.take}
	if q.analyze == nil {
		q.analyze = func(ctx context.Context, sys *model.System, _ string, chain string, opts twca.Options) (*twca.Analysis, error) {
			return twca.NewCtx(ctx, sys, sys.ChainByName(chain), opts)
		}
	}
	if !opts.NoWarmStart {
		store := e.Warm
		if store == nil {
			store = NewWarmStore()
		}
		baseHash := e.BaseHash
		if !store.retains(baseHash, sys) {
			baseHash, _ = model.CanonicalHash(sys)
		}
		q.warm = store.scope(baseHash, chain, aopts, opts.ScaleDenom)
		q.bp.warm = q.warm
		q.taken = make([]*memoEntry, 0, q.warm.takenHint.Load())
	}

	// Nominal feasibility first: every bisection below brackets against
	// the nominal system holding, and the frontier job reuses this
	// analysis. The nominal coordinate is the identity scaling. It is
	// fetched like a probe batch of one.
	nom := [1]candidate{{x: opts.ScaleDenom}}
	var an *twca.Analysis
	var err error
	if q.warm.fetch(familyKey{kind: coordScale}, nom[:]) == 1 {
		nom[0].taken = true
		q.take(nom[:])
		an, err = nom[0].stored.an, nom[0].stored.err
	} else {
		an, err = q.resolve(ctx, coord{kind: coordScale, subject: "", value: opts.ScaleDenom})
	}
	if err != nil {
		return nil, err
	}
	nominal, err := an.DMMValueCtx(ctx, opts.Constraint.K)
	if err != nil {
		return nil, err
	}
	q.noteQuality(nominal.Quality)
	res := &Result{
		Chain:      chain,
		Constraint: opts.Constraint,
		Policy:     aopts.PolicyName(),
		NominalDMM: nominal.Value,
		ScaleDenom: opts.ScaleDenom,
	}
	certified := nominal.Value <= opts.Constraint.M
	if !certified && !nominal.Quality.Degraded() {
		return nil, fmt.Errorf("sensitivity: chain %q: dmm(%d) = %d exceeds m = %d: %w",
			chain, opts.Constraint.K, nominal.Value, opts.Constraint.M, ErrInfeasibleConstraint)
	}

	tasks := opts.Tasks
	if tasks == nil {
		for _, c := range sys.Chains {
			for _, t := range c.Tasks {
				tasks = append(tasks, t.Name)
			}
		}
	}
	res.Tasks = make([]TaskSlack, len(tasks))
	for i, name := range tasks {
		res.Tasks[i].Task = name
	}

	frontier := func(ctx context.Context) error {
		res.Frontier = make([]FrontierPoint, 0, opts.FrontierMaxK)
		for k := int64(1); k <= opts.FrontierMaxK; k++ {
			r, err := an.DMMValueCtx(ctx, k)
			if err != nil {
				return err
			}
			res.Frontier = append(res.Frontier, FrontierPoint{K: k, MinM: r.Value})
		}
		return nil
	}
	if !certified {
		// A degraded nominal above m only over-approximates dmm(k): it
		// proves neither slack nor infeasibility, so the result
		// certifies nothing (every scale 0, no breakdown) and reports
		// only the degraded frontier instead of failing.
		if opts.FrontierMaxK > 0 {
			if err := frontier(ctx); err != nil {
				return nil, err
			}
		}
		return q.finish(res), nil
	}

	// One job per independent metric; parallel.ForEach guarantees
	// deterministic first-error selection and every job writes its own
	// result slot, so the fan-out is invisible in the output.
	var jobs []func(context.Context) error
	jobs = append(jobs, func(ctx context.Context) error {
		scale, atLimit, err := q.bp.maxTrue(ctx, familyKey{kind: coordScale}, opts.ScaleDenom, opts.MaxScale, func(ctx context.Context, c *candidate) (bool, error) {
			return q.holdsAt(ctx, c, coord{kind: coordScale, subject: "", value: c.x})
		})
		res.Uniform = Slack{Scale: scale, AtLimit: atLimit}
		return err
	})
	if opts.FrontierMaxK > 0 {
		jobs = append(jobs, frontier)
	}
	for i, name := range tasks {
		i, name := i, name
		jobs = append(jobs, func(ctx context.Context) error {
			scale, atLimit, err := q.bp.maxTrue(ctx, familyKey{kind: coordScale, subject: name}, opts.ScaleDenom, opts.MaxScale, func(ctx context.Context, c *candidate) (bool, error) {
				return q.holdsAt(ctx, c, coord{kind: coordScale, subject: name, value: c.x})
			})
			res.Tasks[i].Slack = Slack{Scale: scale, AtLimit: atLimit}
			return err
		})
	}
	overload := sys.OverloadChains()
	res.Breakdown = make([]Breakdown, len(overload))
	for i, oc := range overload {
		i, oc := i, oc
		jobs = append(jobs, func(ctx context.Context) error {
			b, err := q.breakdown(ctx, oc, opts)
			res.Breakdown[i] = b
			return err
		})
	}
	if err := parallel.ForEach(opts.Workers, len(jobs), func(i int) error { return jobs[i](ctx) }); err != nil {
		return nil, err
	}
	return q.finish(res), nil
}

// finish fills res's effort counters and aggregate quality once every
// probe of the query is done, and records the query's take count as the
// scope's sizing hint for the next query.
func (q *query) finish(res *Result) *Result {
	q.chargeTaken()
	res.Probes = q.probes.Load()
	res.Analyses = q.analyses.Load()
	if q.warm != nil {
		q.warm.takenHint.Store(int64(len(q.taken)))
	}
	q.qmu.Lock()
	res.Quality = q.worst
	q.qmu.Unlock()
	return res
}

// breakdown measures one overload chain's jitter and distance
// tolerance.
func (q *query) breakdown(ctx context.Context, oc *model.Chain, opts Options) (Breakdown, error) {
	b := Breakdown{Chain: oc.Name}
	d0, hasDistance := NominalDistance(oc.Activation)

	maxJ := opts.MaxJitter
	if maxJ == 0 {
		if hasDistance {
			maxJ = curves.MulSat(d0, 64)
		}
		if maxJ == 0 || maxJ.IsInf() {
			maxJ = 1 << 40
		}
	}
	j, atLimit, err := q.bp.maxTrue(ctx, familyKey{kind: coordJitter, subject: oc.Name}, 0, int64(maxJ), func(ctx context.Context, c *candidate) (bool, error) {
		return q.holdsAt(ctx, c, coord{kind: coordJitter, subject: oc.Name, value: c.x})
	})
	if err != nil {
		return b, err
	}
	b.MaxExtraJitter, b.JitterAtLimit = curves.Time(j), atLimit

	if hasDistance {
		b.NominalDistance = d0
		d, atLimit, err := q.bp.minTrue(ctx, familyKey{kind: coordDistance, subject: oc.Name}, 1, int64(d0), func(ctx context.Context, c *candidate) (bool, error) {
			return q.holdsAt(ctx, c, coord{kind: coordDistance, subject: oc.Name, value: c.x})
		})
		if err != nil {
			return b, err
		}
		b.MinDistance, b.DistanceAtLimit = curves.Time(d), atLimit
	}
	return b, nil
}

// query is the shared state of one Query call: the probe memo, the
// warm-store scope and the effort counters.
type query struct {
	analyze AnalyzeFunc
	sys     *model.System
	chain   string
	aopts   twca.Options
	c       weaklyhard.Constraint
	denom   int64
	bp      batcher
	warm    *scopeStore // nil under NoWarmStart

	probes   atomic.Int64
	analyses atomic.Int64

	mu     sync.Mutex
	byHash map[string]*memoEntry // fresh analyses, by content hash
	taken  []*memoEntry          // warm-store outcomes the probes took

	qmu   sync.Mutex
	worst degrade.Info
}

// noteQuality folds one probe's degradation tag into the query-wide
// aggregate. The fold is order-free so the aggregate is deterministic
// under any worker count: the quality level is a max, and Budget/Rung
// collapse to "mixed" whenever two probes at the worst level disagree.
func (q *query) noteQuality(i degrade.Info) {
	if !i.Degraded() {
		return
	}
	q.qmu.Lock()
	defer q.qmu.Unlock()
	switch {
	case i.Quality > q.worst.Quality:
		q.worst = i
	case i.Quality == q.worst.Quality:
		if q.worst.Budget != i.Budget {
			q.worst.Budget = "mixed"
		}
		if q.worst.Rung != i.Rung {
			q.worst.Rung = "mixed"
		}
	}
}

// memoEntry is one probe analysis of the system with content hash hash:
// a query's in-flight one, whose followers wait on done instead of
// re-running the analysis, or a warm-store outcome, complete when
// stored and never written again (done is nil).
type memoEntry struct {
	done chan struct{}
	hash string
	an   *twca.Analysis
	err  error
}

// resolve returns the prepared DMM analysis of the system at coordinate
// c, which the warm store does not hold (a stored outcome skips
// materializing and hashing the perturbed system; see holdsAt). The
// system is built, hashed and solved at most once per content hash.
// Completed outcomes are stored under c for future queries.
//
// Transient failures (cancellation, injected faults) are evicted before
// followers wake, so a probe canceled mid-flight is not replayed to
// probes arriving with a healthy context; deterministic failures are
// retained like any other outcome.
func (q *query) resolve(ctx context.Context, c coord) (*twca.Analysis, error) {
	sys, err := q.materialize(c)
	if err != nil {
		return nil, err
	}
	hash, _ := model.CanonicalHash(sys) // "" when sys has no JSON form
	e, created := q.entry(hash)
	if created {
		e.an, e.err = q.analyze(ctx, sys, hash, q.chain, q.aopts)
		if e.err != nil && !deterministicErr(e.err) {
			q.mu.Lock()
			delete(q.byHash, hash)
			q.mu.Unlock()
		}
		close(e.done)
	} else {
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if e.err == nil || deterministicErr(e.err) {
		// Deliberate negative caching: deterministicErr gates retention
		// to errors that recur identically on re-analysis.
		q.warm.put(c, hash, e.an, e.err, q.denom)
	}
	return e.an, e.err
}

// entry returns the memo entry of the system with content hash hash,
// creating an in-flight one, which the caller fills and then closes,
// when the hash has none yet. Creating an entry charges Analyses; an
// unhashable system (empty hash) cannot be deduplicated, so every call
// creates a fresh, unshared entry and is charged.
func (q *query) entry(hash string) (*memoEntry, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if e, ok := q.byHash[hash]; ok && hash != "" {
		return e, false
	}
	e := &memoEntry{done: make(chan struct{}), hash: hash}
	if hash != "" {
		q.byHash[hash] = e
	}
	q.analyses.Add(1)
	return e, true
}

// take records the warm-store outcomes a batch's probes took
// (candidate.taken), under one lock for the whole batch. A probe path
// that only appends pointers keeps string-keyed map work, and the lock
// convoy it caused, off warm probes; chargeTaken charges them once the
// query's probes are done.
func (q *query) take(cands []candidate) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := range cands {
		if cands[i].taken {
			q.taken = append(q.taken, cands[i].stored)
		}
	}
}

// chargeTaken charges Analyses for the warm-store outcomes the query
// took, after every probe is done: once per hash that no fresh analysis
// of the query and no other taken outcome already carries, and once
// per unhashable outcome. With entry's charges, Analyses is then the
// number of distinct systems the query analyzed or took from the warm
// store, whatever the probe order, worker count or store warmth.
func (q *query) chargeTaken() {
	slices.SortFunc(q.taken, func(a, b *memoEntry) int { return strings.Compare(a.hash, b.hash) })
	for i, e := range q.taken {
		if e.hash != "" && (i > 0 && q.taken[i-1].hash == e.hash || q.byHash[e.hash] != nil) {
			continue
		}
		q.analyses.Add(1)
	}
}

// materialize builds the perturbed system at coordinate c.
func (q *query) materialize(c coord) (*model.System, error) {
	switch c.kind {
	case coordScale:
		return ScaleWCET(q.sys, c.subject, c.value, q.denom), nil
	case coordJitter:
		return WithExtraJitter(q.sys, c.subject, curves.Time(c.value))
	case coordDistance:
		return WithDistance(q.sys, c.subject, curves.Time(c.value))
	}
	return nil, fmt.Errorf("sensitivity: unknown coordinate kind %d", c.kind)
}

// holdsAt is the monotone predicate every metric bisects: does the
// constraint still verify on the system at coordinate c, the probe of
// candidate cand? A warm-store outcome fetched for cand answers without
// resolve and is marked taken, for the batch to record. A perturbation
// that breaks the busy-window analysis outright (diverged fixed point,
// no closing window) is a definite "no", not an error.
func (q *query) holdsAt(ctx context.Context, cand *candidate, c coord) (bool, error) {
	q.probes.Add(1)
	if f := faultinject.At(faultinject.PointSensitivityProbe); f != nil {
		if f.Budget() {
			// An exhausted probe budget is a definite "no", like a
			// diverged perturbation: slack shrinks, never grows.
			return false, nil
		}
		if err := f.Apply(); err != nil {
			return false, fmt.Errorf("sensitivity: probe: %w", err)
		}
	}
	var an *twca.Analysis
	var err error
	if cand.stored != nil {
		cand.taken = true
		an, err = cand.stored.an, cand.stored.err
	} else {
		an, err = q.resolve(ctx, c)
	}
	if err != nil {
		if errors.Is(err, latency.ErrDiverged) || errors.Is(err, latency.ErrKExceeded) {
			return false, nil
		}
		return false, err
	}
	r, err := an.DMMValueCtx(ctx, q.c.K)
	if err != nil {
		return false, err
	}
	q.noteQuality(r.Quality)
	return r.Value <= q.c.M, nil
}

// batcher runs the speculative probe batches of one query's bisections:
// width candidates per round, evaluated concurrently under the query's
// worker bound. The candidate sets are pure functions of previous
// predicate values, so the probe sequence is deterministic regardless
// of workers, and identical between cold and warm runs.
type batcher struct {
	width   int
	workers int
	// warm is the query's warm-store scope (nil: none). A batch whose
	// candidates it answers exactly runs inline: a stored answer costs a
	// pointer read, less than the fan-out it would ride on.
	warm *scopeStore
	// take receives each batch whose fetch found stored outcomes,
	// after its probes ran (nil: none); see query.take.
	take func([]candidate)
}

// probeFunc is the predicate a search bisects, evaluated at candidate
// c.x.
type probeFunc func(ctx context.Context, c *candidate) (bool, error)

// candidate is one probe of a batch: its value, the warm store's
// outcome for it (see scopeStore.fetch), whether the probe took that
// outcome, and the predicate's verdict.
type candidate struct {
	x      int64
	stored *memoEntry
	taken  bool
	ok     bool
}

// eval evaluates pred on every candidate (coordinates of family fk)
// and returns the index of the first candidate pred rejects, or
// len(cands) when it accepts them all. The first error wins, lowest
// index first, per parallel.ForEach. One warm-store fetch first hands
// every candidate its stored outcome. Candidates run concurrently under
// the worker bound unless the store held every one of them; then the
// batch goes through the same pool one at a time. Only the width
// differs, so the probes, their results and every counter are the same
// either way.
func (b batcher) eval(ctx context.Context, fk familyKey, cands []candidate, pred probeFunc) (int, error) {
	workers := b.workers
	found := b.warm.fetch(fk, cands)
	if found == len(cands) {
		workers = 1
	}
	err := parallel.ForEach(workers, len(cands), func(i int) error {
		ok, err := pred(ctx, &cands[i])
		if err != nil {
			return err
		}
		cands[i].ok = ok
		return nil
	})
	if err != nil {
		return 0, err
	}
	if found > 0 && b.take != nil {
		b.take(cands)
	}
	for i := range cands {
		if !cands[i].ok {
			return i, nil
		}
	}
	return len(cands), nil
}

// maxTrue returns the largest x in [lo, hi] with pred(x) true, given
// that pred(lo) is true and pred is monotone (true up to some boundary,
// false beyond). It brackets by exponential steps from lo, then
// bisects, evaluating width speculative candidates per round; atLimit
// reports that pred still held at hi. The invariant pred(result) ∧
// ¬pred(result+1) holds on return whenever atLimit is false — even if
// pred is not perfectly monotone, the returned point sits on a genuine
// boundary (results are scanned in candidate order and the first false
// wins, exactly as a serial search would see them). fk names the
// coordinate family pred probes, for eval's warm-store fetch.
func (b batcher) maxTrue(ctx context.Context, fk familyKey, lo, hi int64, pred probeFunc) (x int64, atLimit bool, err error) {
	if hi <= lo {
		return lo, true, nil
	}
	// One candidate buffer serves every round.
	cands := make([]candidate, 0, b.width)
	good, step, bad := lo, int64(1), int64(-1)
	for good < hi && bad < 0 {
		// One speculative bracketing batch: cumulative exponential steps
		// from good, clamped at hi.
		cands = cands[:0]
		c, s := good, step
		for len(cands) < b.width {
			if c > hi-s { // clamp, guard overflow
				if len(cands) == 0 || cands[len(cands)-1].x != hi {
					cands = append(cands, candidate{x: hi})
				}
				break
			}
			c += s
			cands = append(cands, candidate{x: c})
			if s < 1<<61 {
				s *= 2
			}
		}
		step = s
		first, err := b.eval(ctx, fk, cands, pred)
		if err != nil {
			return 0, false, err
		}
		good, bad = advance(cands, first, good, bad)
	}
	if bad < 0 {
		return hi, true, nil
	}
	for bad-good > 1 {
		// One speculative bisection batch: width evenly spaced interior
		// candidates; when the gap is too small for that, a single
		// midpoint.
		gap := bad - good
		unit := gap / int64(b.width+1)
		cands = cands[:0]
		if unit > 0 {
			for i := int64(1); i <= int64(b.width); i++ {
				cands = append(cands, candidate{x: good + i*unit})
			}
		} else {
			cands = append(cands, candidate{x: good + gap/2})
		}
		first, err := b.eval(ctx, fk, cands, pred)
		if err != nil {
			return 0, false, err
		}
		good, bad = advance(cands, first, good, bad)
	}
	return good, false, nil
}

// minTrue is the mirror of maxTrue: the smallest x in [lo, hi] with
// pred(x) true, given that pred(hi) is true; atLimit reports that pred
// held all the way down at lo.
func (b batcher) minTrue(ctx context.Context, fk familyKey, lo, hi int64, pred probeFunc) (x int64, atLimit bool, err error) {
	if hi <= lo {
		return hi, true, nil
	}
	cands := make([]candidate, 0, b.width)
	good, step, bad := hi, int64(1), int64(-1)
	for good > lo && bad < 0 {
		cands = cands[:0]
		c, s := good, step
		for len(cands) < b.width {
			if c < lo+s {
				if len(cands) == 0 || cands[len(cands)-1].x != lo {
					cands = append(cands, candidate{x: lo})
				}
				break
			}
			c -= s
			cands = append(cands, candidate{x: c})
			if s < 1<<61 {
				s *= 2
			}
		}
		step = s
		first, err := b.eval(ctx, fk, cands, pred)
		if err != nil {
			return 0, false, err
		}
		good, bad = advance(cands, first, good, bad)
	}
	if bad < 0 {
		return lo, true, nil
	}
	for good-bad > 1 {
		gap := good - bad
		unit := gap / int64(b.width+1)
		cands = cands[:0]
		if unit > 0 {
			for i := int64(1); i <= int64(b.width); i++ {
				cands = append(cands, candidate{x: good - i*unit})
			}
		} else {
			cands = append(cands, candidate{x: good - gap/2})
		}
		first, err := b.eval(ctx, fk, cands, pred)
		if err != nil {
			return 0, false, err
		}
		good, bad = advance(cands, first, good, bad)
	}
	return good, false, nil
}

// advance moves a search's bracket past one evaluated batch: the
// candidates before the first rejected one (index first) held, so the
// last of them is the new good point, and the rejected one, if any, is
// the new bad point.
func advance(cands []candidate, first int, good, bad int64) (int64, int64) {
	if first > 0 {
		good = cands[first-1].x
	}
	if first < len(cands) {
		bad = cands[first].x
	}
	return good, bad
}

func hasTask(sys *model.System, name string) bool {
	for _, c := range sys.Chains {
		for _, t := range c.Tasks {
			if t.Name == name {
				return true
			}
		}
	}
	return false
}

// deterministicErr reports whether err is a pure function of the
// analyzed system — safe to replay from a cache — rather than an
// artifact of the run (cancellation, fault injection, deadline).
func deterministicErr(err error) bool {
	return errors.Is(err, latency.ErrDiverged) || errors.Is(err, latency.ErrKExceeded)
}
