package sim

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"

	"repro/internal/curves"
	"repro/internal/model"
	"repro/internal/policy"
)

// runMapped is the multi-resource engine behind Config.Mapping: tasks
// mapped to different resource names execute in parallel, each resource
// scheduled independently under the configured (preemptive) policy.
// Chain semantics are unchanged — finishing a task activates its
// successor, wherever that successor is mapped; unmapped tasks share
// the default resource "".
//
// With every task mapped to one resource, the result is behaviorally
// identical to the uniprocessor engine (asserted by
// TestRunMappedMatchesRun).
func runMapped(ctx context.Context, sys *model.System, cfg Config, pol policy.Simulator) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	known := make(map[string]bool)
	for _, c := range sys.Chains {
		for _, t := range c.Tasks {
			known[t.Name] = true
		}
	}
	for name := range cfg.Mapping {
		if !known[name] {
			return nil, fmt.Errorf("sim: mapping names unknown task %q", name)
		}
	}
	if cfg.AbortOnMiss {
		return nil, fmt.Errorf("sim: AbortOnMiss is not supported by the multi-resource engine")
	}
	cfg = cfg.withDefaults()
	e := &multiEngine{
		engine:  engine{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), ctx: ctx},
		mapping: cfg.Mapping,
		queues:  make(map[string]*readyQueue),
	}
	e.sched = pol.NewScheduler(sys, e.rng)
	if !e.sched.Preemptive() {
		return nil, fmt.Errorf("sim: policy %q: non-preemptive policies are not supported by the multi-resource engine: %w",
			pol.Name(), policy.ErrUnsupported)
	}
	e.preemptive = true
	if cfg.RecordTrace {
		e.trace = &Trace{}
	}
	if cfg.RecordResponses {
		e.responses = make(map[string]curves.Time)
	}
	res := &Result{Chains: make(map[string]*ChainStats)}
	for _, c := range sys.Chains {
		arrivals := GenerateArrivals(c.Activation, cfg.policyFor(c.Name), cfg.Horizon, e.rng)
		if off := cfg.OffsetsFor[c.Name]; off != 0 {
			shifted := make([]curves.Time, len(arrivals))
			for i, a := range arrivals {
				shifted[i] = a + off
			}
			arrivals = shifted
		}
		st := &chainState{chain: c, arrivals: arrivals, stats: &ChainStats{Chain: c.Name}}
		if cfg.RecordArrivals {
			st.stats.Arrivals = append([]curves.Time(nil), arrivals...)
		}
		e.chains = append(e.chains, st)
		res.Chains[c.Name] = st.stats
	}
	e.loopMulti()
	res.Trace = e.trace
	res.TaskResponses = e.responses
	res.End = e.t
	return res, nil
}

// multiEngine extends the uniprocessor engine with one ready queue per
// resource. The embedded engine's single `ready` queue is unused; jobs
// are routed by routePending.
type multiEngine struct {
	engine
	mapping map[string]string
	queues  map[string]*readyQueue
}

func (e *multiEngine) resourceOf(j *job) string {
	return e.mapping[j.inst.state.chain.Tasks[j.taskIdx].Name]
}

// routePending moves jobs the embedded engine released into the
// per-resource queues.
func (e *multiEngine) routePending() {
	for len(e.ready) > 0 {
		j := heap.Pop(&e.ready).(*job)
		r := e.resourceOf(j)
		q, ok := e.queues[r]
		if !ok {
			q = &readyQueue{}
			e.queues[r] = q
		}
		heap.Push(q, j)
	}
}

// loopMulti is the multi-resource event loop: every resource runs its
// highest-priority ready job; time advances to the next arrival or the
// earliest completion among running jobs.
func (e *multiEngine) loopMulti() {
	for {
		e.routePending()
		next := e.nextArrival()
		// Collect the running job per resource.
		var running []*job
		for _, q := range e.queues {
			if q.Len() > 0 {
				running = append(running, (*q)[0])
			}
		}
		if len(running) == 0 {
			if next.IsInf() {
				return
			}
			if next > e.t {
				e.t = next
			}
			e.processArrivals(e.t)
			continue
		}
		// Earliest completion across resources.
		end := curves.Infinity
		for _, j := range running {
			if c := e.t + j.remaining; c < end {
				end = c
			}
		}
		if !next.IsInf() && next < end {
			for _, j := range running {
				e.record(j, e.t, next)
				j.remaining -= next - e.t
			}
			e.t = next
			e.processArrivals(e.t)
			continue
		}
		// Advance everyone to the earliest completion; finish the jobs
		// that reach zero remaining time.
		for _, j := range running {
			e.record(j, e.t, end)
			j.remaining -= end - e.t
		}
		e.t = end
		for _, q := range e.queues {
			if q.Len() > 0 && (*q)[0].remaining == 0 {
				e.complete(heap.Pop(q).(*job))
			}
		}
		e.processArrivals(e.t)
	}
}
