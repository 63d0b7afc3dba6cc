// Package faultinject is the deterministic fault-injection harness the
// chaos tests drive. Injection points are compiled into the pipeline's
// seams (worker-pool task entry, the ILP branch loop, the busy-window
// fixed point, the service cache, sensitivity bisection probes); each
// seam calls At(point), which is a single atomic pointer load returning
// nil when nothing is armed — the production fast path costs one
// predictable branch.
//
// Determinism: a rule fires as a pure function of its arrival counter
// (and, optionally, a seed hashed with the counter via splitmix64), so
// a test that arms the same plan and issues the same requests sees the
// same faults in the same places — no wall clock, no global RNG.
//
// The harness is process-global (the seams it serves are too), so tests
// that arm plans must not run in parallel with each other; the package
// tests and the chaos suite serialize on Configure/Disarm.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Point identifies one injection seam compiled into the pipeline.
type Point string

const (
	// PointWorkerTask fires at every task entry of parallel.ForEach.
	PointWorkerTask Point = "parallel.worker.task"
	// PointILPBranch fires in the ILP branch-and-bound loop, at the
	// cooperative cancellation cadence.
	PointILPBranch Point = "ilp.branch"
	// PointBusyWindow fires at every busy-window fixed-point start
	// (latency B_b(q) evaluation).
	PointBusyWindow Point = "latency.busywindow"
	// PointServiceCache fires inside the service cache's computation
	// flight, before the analysis function runs.
	PointServiceCache Point = "service.cache"
	// PointSensitivityProbe fires at every sensitivity bisection probe.
	PointSensitivityProbe Point = "sensitivity.probe"
	// PointSensitivityWarmStore fires at every warm-store consultation
	// of the incremental sensitivity engine (one exact-coordinate fetch
	// per probe batch, and each WarmStore.Nominal lookup). An injected
	// fault there makes the store report a miss, so the probe silently
	// falls back to a cold solve — never a wrong-side bound.
	PointSensitivityWarmStore Point = "sensitivity.warmstore"
	// PointServiceRelay fires at the start of every fleet relay
	// attempt. An injected error makes the attempt fail as if the peer
	// were unreachable (driving the failure report, retry and local
	// fallback); an injected delay simulates a slow peer, which must
	// not be reported down.
	PointServiceRelay Point = "service.relay"
	// PointServiceHeartbeat fires at every peer health probe of the
	// service's heartbeat loop. An injected error fails the probe,
	// letting chaos tests drive the per-peer state machine to eviction
	// without killing a listener.
	PointServiceHeartbeat Point = "service.heartbeat"
)

// Points lists every compiled-in seam, for spec validation and docs.
var Points = []Point{
	PointWorkerTask,
	PointILPBranch,
	PointBusyWindow,
	PointServiceCache,
	PointSensitivityProbe,
	PointSensitivityWarmStore,
	PointServiceRelay,
	PointServiceHeartbeat,
}

// Action is what a firing rule does to the seam.
type Action string

const (
	// ActionError makes the seam fail with an error wrapping ErrInjected.
	ActionError Action = "error"
	// ActionPanic panics at the seam (exercising recovery paths).
	ActionPanic Action = "panic"
	// ActionDelay sleeps for Rule.Delay and then lets the seam proceed
	// (exercising deadline-triggered ladder descent).
	ActionDelay Action = "delay"
	// ActionBudget simulates budget exhaustion: Apply returns nil and
	// the seam interprets Budget() itself (the ILP loop truncates the
	// search, the busy-window loop reports divergence).
	ActionBudget Action = "budget"
)

// ErrInjected is wrapped by every error an ActionError rule produces,
// so tests can tell injected failures from organic ones.
var ErrInjected = errors.New("faultinject: injected fault")

// Rule arms one fault at one point.
type Rule struct {
	Point  Point
	Action Action
	// Every fires the rule on a 1-in-Every basis (default 1 = every
	// arrival). With Seed == 0 the rule fires when the arrival ordinal
	// is a multiple of Every; with Seed != 0 the decision is
	// splitmix64(Seed ⊕ ordinal) mod Every == 0 — still deterministic,
	// but scattered instead of periodic.
	Every uint64
	// Seed selects the scattered firing pattern (see Every).
	Seed uint64
	// Times caps the total number of fires (0 = unlimited).
	Times int64
	// Delay is the ActionDelay sleep duration.
	Delay time.Duration
}

func (r Rule) validate() error {
	ok := false
	for _, p := range Points {
		if r.Point == p {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("faultinject: unknown point %q", r.Point)
	}
	switch r.Action {
	case ActionError, ActionPanic, ActionDelay, ActionBudget:
	default:
		return fmt.Errorf("faultinject: unknown action %q", r.Action)
	}
	if r.Times < 0 {
		return fmt.Errorf("faultinject: rule %s: negative times %d", r.Point, r.Times)
	}
	if r.Delay < 0 {
		return fmt.Errorf("faultinject: rule %s: negative delay %v", r.Point, r.Delay)
	}
	return nil
}

// armedRule is a Rule with its live counters.
type armedRule struct {
	Rule
	arrivals atomic.Uint64
	fired    atomic.Int64
}

// fire decides deterministically whether this arrival triggers the
// rule, honoring the Times cap.
func (r *armedRule) fire() bool {
	n := r.arrivals.Add(1)
	every := r.Every
	if every == 0 {
		every = 1
	}
	var hit bool
	if r.Seed == 0 {
		hit = n%every == 0
	} else {
		hit = splitmix64(r.Seed^n)%every == 0
	}
	if !hit {
		return false
	}
	if r.Times > 0 && r.fired.Add(1) > r.Times {
		return false
	}
	if r.Times <= 0 {
		r.fired.Add(1)
	}
	return true
}

type plan struct {
	byPoint map[Point][]*armedRule
}

var active atomic.Pointer[plan]

// Configure arms the given rules, replacing any previous plan. Counters
// start fresh.
func Configure(rules []Rule) error {
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return err
		}
	}
	p := &plan{byPoint: make(map[Point][]*armedRule)}
	for _, r := range rules {
		p.byPoint[r.Point] = append(p.byPoint[r.Point], &armedRule{Rule: r})
	}
	active.Store(p)
	return nil
}

// Disarm removes every armed rule; subsequent At calls return nil.
func Disarm() { active.Store(nil) }

// Armed reports whether any plan is configured.
func Armed() bool { return active.Load() != nil }

// Fault is a fired rule, handed to the seam to apply.
type Fault struct {
	Point  Point
	Action Action
	Delay  time.Duration
}

// At records an arrival at the seam and returns the fault to apply, or
// nil — the common case, decided by one atomic load.
func At(point Point) *Fault {
	p := active.Load()
	if p == nil {
		return nil
	}
	for _, r := range p.byPoint[point] {
		if r.fire() {
			return &Fault{Point: point, Action: r.Action, Delay: r.Delay}
		}
	}
	return nil
}

// Budget reports whether the seam should simulate budget exhaustion
// itself (Apply is a no-op for this action).
func (f *Fault) Budget() bool { return f.Action == ActionBudget }

// Apply executes the fault: ActionError returns an error wrapping
// ErrInjected, ActionPanic panics, ActionDelay sleeps and returns nil,
// ActionBudget returns nil (the seam interprets Budget()).
func (f *Fault) Apply() error {
	switch f.Action {
	case ActionPanic:
		panic(fmt.Sprintf("faultinject: %s: injected panic", f.Point))
	case ActionDelay:
		time.Sleep(f.Delay)
		return nil
	case ActionBudget:
		return nil
	default:
		return fmt.Errorf("%s: %w", f.Point, ErrInjected)
	}
}

// FireCounts returns the number of times each point's rules have fired
// under the current plan, keyed by point, for assertions and metrics.
func FireCounts() map[Point]int64 {
	p := active.Load()
	if p == nil {
		return nil
	}
	out := make(map[Point]int64, len(p.byPoint))
	for pt, rules := range p.byPoint {
		for _, r := range rules {
			n := r.fired.Load()
			if r.Times > 0 && n > r.Times {
				n = r.Times
			}
			out[pt] += n
		}
	}
	return out
}

// ParseSpec parses the TWCA_FAULTS environment format: comma-separated
// rules, each "point:action[:key=value...]" with keys every, seed,
// times, delay. Example:
//
//	parallel.worker.task:panic:every=7,ilp.branch:budget:seed=42:every=3,latency.busywindow:delay:delay=50ms
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("faultinject: rule %q: want point:action[:key=value...]", part)
		}
		r := Rule{Point: Point(fields[0]), Action: Action(fields[1])}
		for _, kv := range fields[2:] {
			key, val, found := strings.Cut(kv, "=")
			if !found {
				return nil, fmt.Errorf("faultinject: rule %q: field %q is not key=value", part, kv)
			}
			switch key {
			case "every":
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil || n == 0 {
					return nil, fmt.Errorf("faultinject: rule %q: bad every=%q", part, val)
				}
				r.Every = n
			case "seed":
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("faultinject: rule %q: bad seed=%q", part, val)
				}
				r.Seed = n
			case "times":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("faultinject: rule %q: bad times=%q", part, val)
				}
				r.Times = n
			case "delay":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("faultinject: rule %q: bad delay=%q", part, val)
				}
				r.Delay = d
			default:
				return nil, fmt.Errorf("faultinject: rule %q: unknown key %q", part, key)
			}
		}
		if err := r.validate(); err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// ConfigureSpec parses and arms a TWCA_FAULTS spec in one step.
func ConfigureSpec(spec string) error {
	rules, err := ParseSpec(spec)
	if err != nil {
		return err
	}
	return Configure(rules)
}

// Describe renders the armed plan one rule per line (points sorted),
// for startup logging so an armed harness is never silent.
func Describe() string {
	p := active.Load()
	if p == nil {
		return "faultinject: disarmed"
	}
	var pts []string
	for pt := range p.byPoint {
		pts = append(pts, string(pt))
	}
	sort.Strings(pts)
	var b strings.Builder
	for _, pt := range pts {
		for _, r := range p.byPoint[Point(pt)] {
			every := r.Every
			if every == 0 {
				every = 1
			}
			fmt.Fprintf(&b, "faultinject: %s: %s every=%d seed=%d times=%d delay=%v\n",
				r.Point, r.Action, every, r.Seed, r.Times, r.Delay)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// splitmix64 is the SplitMix64 finalizer — a tiny, well-mixed integer
// hash, embedded here so the scattered firing pattern needs no
// math/rand and stays identical across Go releases.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
