package sim

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/curves"
	"repro/internal/model"
	"repro/internal/policy"
)

// Config parameterizes one simulation run.
type Config struct {
	// Horizon stops activation generation at this time; jobs released
	// before it are drained to completion (default 1 << 20).
	Horizon curves.Time
	// Seed makes stochastic policies reproducible.
	Seed int64
	// Arrivals is the default arrival policy (Dense if unset).
	Arrivals ArrivalPolicy
	// ArrivalsFor overrides the policy per chain name.
	ArrivalsFor map[string]ArrivalPolicy
	// OffsetsFor shifts every activation of the named chain by a fixed
	// phase. Use with Dense arrivals to explore arrival phasings
	// exhaustively (see ExhaustivePhasings).
	OffsetsFor map[string]curves.Time
	// RecordArrivals keeps the activation timestamps per chain so the
	// run can be turned back into a trace-based event model
	// (curves.NewTrace).
	RecordArrivals bool
	// RecordResponses keeps per-task worst-case response times
	// (release of the task instance to its completion).
	RecordResponses bool
	// Execution is the job execution time policy (WorstCase if unset).
	Execution ExecPolicy
	// RecordTrace keeps per-slice execution history for Gantt output.
	RecordTrace bool
	// AbortOnMiss switches from the paper's deadline-agnostic scheduler
	// (instances always run to completion) to a variant that cancels an
	// instance once its end-to-end deadline has passed: the running job
	// is stopped at the deadline instant and queued jobs of expired
	// instances are discarded when they surface. Cancelled instances
	// count as misses and as ChainStats.Aborts. TWCA assumes the
	// deadline-agnostic scheduler; this variant exists to explore how
	// much load shedding changes the picture.
	AbortOnMiss bool
	// Policy names the scheduling policy the engine dispatches by
	// ("spp", "np-spp", "edf", "jcl" — see internal/policy). The empty
	// string selects "spp", the pre-policy engine byte-for-byte.
	Policy string
	// Mapping distributes tasks over resources by task name (tasks it
	// leaves out share the default resource ""): tasks on different
	// resources execute in parallel, each resource scheduled
	// independently, and each step handles the resources in sorted name
	// order. An empty map is the one-resource run. A Mapping supports
	// preemptive policies only and rejects AbortOnMiss.
	Mapping map[string]string
}

func (c Config) withDefaults() Config {
	if c.Horizon <= 0 {
		c.Horizon = 1 << 20
	}
	return c
}

func (c Config) policyFor(name string) ArrivalPolicy {
	if p, ok := c.ArrivalsFor[name]; ok {
		return p
	}
	return c.Arrivals
}

// Result holds the outcome of a run.
type Result struct {
	// Chains maps chain names to their statistics.
	Chains map[string]*ChainStats
	// TaskResponses maps task names to the worst observed response time
	// (job release to job completion); populated when
	// Config.RecordResponses is set.
	TaskResponses map[string]curves.Time
	// Trace is non-nil when Config.RecordTrace was set.
	Trace *Trace
	// End is the time the last job finished.
	End curves.Time
}

// job is one released task instance. rank and tie come from the
// policy's scheduler at release time (policy.Scheduler.Rank).
type job struct {
	inst      *instance
	taskIdx   int
	remaining curves.Time
	rank      int64
	tie       int64
	seq       int64
	release   curves.Time
}

// instance is one end-to-end chain instance.
type instance struct {
	state      *chainState
	activation curves.Time
	// deadline is the absolute abort time under Config.AbortOnMiss
	// (0 = none).
	deadline curves.Time
}

type chainState struct {
	chain *model.Chain
	// resource maps each task index to its resource index.
	resource []int
	arrivals []curves.Time
	nextArr  int
	pending  []curves.Time // sync chains: queued activations
	inFlight bool
	stats    *ChainStats
}

// readyQueue orders jobs by ascending policy rank, then ascending tie,
// then FIFO (release order). Under SPP the rank is the negated task
// priority and ties are constant, which reproduces the historical
// "descending priority, FIFO within equal priority" order exactly.
type readyQueue []*job

func (q readyQueue) Len() int { return len(q) }
func (q readyQueue) Less(i, j int) bool {
	if q[i].rank != q[j].rank {
		return q[i].rank < q[j].rank
	}
	if q[i].tie != q[j].tie {
		return q[i].tie < q[j].tie
	}
	return q[i].seq < q[j].seq
}
func (q readyQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *readyQueue) Push(x any)   { *q = append(*q, x.(*job)) }
func (q *readyQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// engine is the simulation state. ready and running are indexed by
// resource, in sorted resource-name order.
type engine struct {
	cfg    Config
	rng    *rand.Rand
	sched  policy.Scheduler
	chains []*chainState
	ready  []readyQueue
	// running holds each resource's committed job under a non-preemptive
	// scheduler: once selected it leaves the heap and runs to completion
	// (or abort). Always nil under preemptive policies, where the heap
	// head re-read at every step is what implements preemption.
	running    []*job
	preemptive bool
	seq        int64
	trace      *Trace
	t          curves.Time
	responses  map[string]curves.Time
	ctx        context.Context // cooperative cancellation; nil when absent
	steps      int64
}

// Run simulates the system under the given configuration. The system
// must be valid (unique priorities are load-bearing for determinism).
func Run(sys *model.System, cfg Config) (*Result, error) {
	return RunCtx(context.Background(), sys, cfg)
}

// RunCtx is Run with cooperative cancellation: the event loop polls ctx
// every few thousand scheduling events and returns an error wrapping
// ctx.Err() when the context ends the run early. Long horizons on busy
// systems produce millions of events, so servers should always prefer
// this entry point.
func RunCtx(ctx context.Context, sys *model.System, cfg Config) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	pol, err := policy.SimulatorFor(cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	resources, err := resourceIndex(sys, cfg.Mapping)
	if err != nil {
		return nil, err
	}
	if len(cfg.Mapping) > 0 && cfg.AbortOnMiss {
		return nil, fmt.Errorf("sim: AbortOnMiss is not supported with a Mapping")
	}
	cfg = cfg.withDefaults()
	e := &engine{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), ctx: ctx}
	e.sched = pol.NewScheduler(sys, e.rng)
	e.preemptive = e.sched.Preemptive()
	if len(cfg.Mapping) > 0 && !e.preemptive {
		return nil, fmt.Errorf("sim: policy %q: non-preemptive policies are not supported with a Mapping: %w",
			pol.Name(), policy.ErrUnsupported)
	}
	if cfg.RecordTrace {
		e.trace = &Trace{}
	}
	if cfg.RecordResponses {
		e.responses = make(map[string]curves.Time)
	}
	e.ready = make([]readyQueue, len(resources))
	e.running = make([]*job, len(resources))
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
		st := &chainState{
			chain:    c,
			resource: make([]int, len(c.Tasks)),
			arrivals: arrivals,
			stats:    &ChainStats{Chain: c.Name},
		}
		for i, t := range c.Tasks {
			st.resource[i] = resources[cfg.Mapping[t.Name]]
		}
		if cfg.RecordArrivals {
			st.stats.Arrivals = append([]curves.Time(nil), arrivals...)
		}
		e.chains = append(e.chains, st)
		res.Chains[c.Name] = st.stats
	}
	if err := e.loop(); err != nil {
		return nil, err
	}
	res.Trace = e.trace
	res.TaskResponses = e.responses
	res.End = e.t
	return res, nil
}

// resourceIndex numbers the resources the system's tasks run on in
// sorted name order, and rejects a mapping that names an unknown task.
// Tasks the mapping leaves out share the default resource "", so an
// unmapped run has exactly one resource.
func resourceIndex(sys *model.System, mapping map[string]string) (map[string]int, error) {
	index := make(map[string]int)
	known := make(map[string]bool)
	for _, c := range sys.Chains {
		for _, t := range c.Tasks {
			index[mapping[t.Name]] = 0
			known[t.Name] = true
		}
	}
	for _, name := range sortedKeys(mapping) {
		if !known[name] {
			return nil, fmt.Errorf("sim: mapping names unknown task %q", name)
		}
	}
	for i, name := range sortedKeys(index) {
		index[name] = i
	}
	return index, nil
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// nextArrival returns the earliest pending activation time, or
// Infinity.
func (e *engine) nextArrival() curves.Time {
	next := curves.Infinity
	for _, st := range e.chains {
		if st.nextArr < len(st.arrivals) && st.arrivals[st.nextArr] < next {
			next = st.arrivals[st.nextArr]
		}
	}
	return next
}

// processArrivals activates every chain whose next arrival is ≤ now.
func (e *engine) processArrivals(now curves.Time) {
	for _, st := range e.chains {
		for st.nextArr < len(st.arrivals) && st.arrivals[st.nextArr] <= now {
			at := st.arrivals[st.nextArr]
			st.nextArr++
			st.stats.Activations++
			if st.chain.Kind == model.Synchronous && st.inFlight {
				st.pending = append(st.pending, at)
				continue
			}
			e.startInstance(st, at)
		}
	}
}

// startInstance releases the header job of a new chain instance whose
// activation time is at.
func (e *engine) startInstance(st *chainState, at curves.Time) {
	st.inFlight = true
	inst := &instance{state: st, activation: at}
	if e.cfg.AbortOnMiss && st.chain.Deadline > 0 {
		inst.deadline = at + st.chain.Deadline
	}
	e.release(inst, 0)
}

// release pushes the job for task idx of inst into its resource's
// ready queue, ranked by the policy's scheduler.
func (e *engine) release(inst *instance, idx int) {
	task := inst.state.chain.Tasks[idx]
	rank, tie := e.sched.Rank(policy.JobRef{
		Chain:      inst.state.chain,
		TaskIdx:    idx,
		Activation: inst.activation,
	})
	e.seq++
	heap.Push(&e.ready[inst.state.resource[idx]], &job{
		inst:      inst,
		taskIdx:   idx,
		remaining: execTime(task.BCET, task.WCET, e.cfg.Execution, e.rng),
		rank:      rank,
		tie:       tie,
		seq:       e.seq,
		release:   e.t,
	})
}

// complete handles the end of job j at the current time.
func (e *engine) complete(j *job) {
	st := j.inst.state
	if e.responses != nil {
		name := st.chain.Tasks[j.taskIdx].Name
		if r := e.t - j.release; r > e.responses[name] {
			e.responses[name] = r
		}
	}
	if j.taskIdx+1 < st.chain.Len() {
		e.release(j.inst, j.taskIdx+1)
		return
	}
	// End-to-end completion.
	lat := e.t - j.inst.activation
	st.stats.record(lat, st.chain.Deadline)
	e.endInstance(st, st.chain.Deadline <= 0 || lat <= st.chain.Deadline)
}

// abort cancels the remaining execution of j's instance at the current
// time: the miss is recorded and, for synchronous chains, the next
// pending activation is started.
func (e *engine) abort(j *job) {
	st := j.inst.state
	st.stats.Misses++
	st.stats.Aborts++
	st.stats.MissPattern = append(st.stats.MissPattern, true)
	e.endInstance(st, false)
}

// endInstance closes st's current instance: the scheduler learns
// whether it met its deadline and, for a synchronous chain, the next
// pending activation starts.
func (e *engine) endInstance(st *chainState, met bool) {
	e.sched.InstanceDone(st.chain, met)
	if st.chain.Kind != model.Synchronous {
		return
	}
	st.inFlight = false
	if len(st.pending) > 0 {
		at := st.pending[0]
		st.pending = st.pending[1:]
		e.startInstance(st, at)
	}
}

// expired reports whether j's instance has passed its AbortOnMiss
// deadline at time t.
func (j *job) expired(t curves.Time) bool {
	return j.inst.deadline > 0 && t >= j.inst.deadline
}

// pick returns resource r's job for this step, or nil when it is
// idle. A preemptive scheduler runs the heap head, re-read at every
// call (arrivals between events preempt implicitly); a non-preemptive
// one commits the head into running[r] and keeps it until detach. Until
// something is released or detached, pick returns the same job.
func (e *engine) pick(r int) *job {
	q := &e.ready[r]
	if e.preemptive {
		if len(*q) == 0 {
			return nil
		}
		return (*q)[0]
	}
	if e.running[r] == nil && len(*q) > 0 {
		e.running[r] = heap.Pop(q).(*job)
	}
	return e.running[r]
}

// detach takes resource r's job off scheduling: the heap head under a
// preemptive scheduler, the committed slot otherwise.
func (e *engine) detach(r int) {
	if e.preemptive {
		heap.Pop(&e.ready[r])
		return
	}
	e.running[r] = nil
}

// loop is the event loop. Each step picks a job on every resource,
// runs them all to the next event — the next arrival, or a picked
// job's completion or AbortOnMiss deadline, whichever comes first —
// and handles it. An unmapped run is the one-resource case.
func (e *engine) loop() error {
	var ended []*job
step:
	for {
		if e.ctx != nil {
			e.steps++
			if e.steps%4096 == 0 {
				if err := e.ctx.Err(); err != nil {
					return fmt.Errorf("sim: run canceled at t=%d: %w", e.t, err)
				}
			}
		}
		next := e.nextArrival()
		end, busy := next, false
		for r := range e.ready {
			j := e.pick(r)
			if j == nil {
				continue
			}
			if j.expired(e.t) {
				// The instance expired while queued (or exactly now).
				e.detach(r)
				e.abort(j)
				continue step
			}
			busy = true
			end = min(end, e.t+j.remaining)
			if j.inst.deadline > 0 {
				end = min(end, j.inst.deadline)
			}
		}
		if !busy {
			if next.IsInf() {
				return nil
			}
			if next > e.t {
				e.t = next
			}
			e.processArrivals(e.t)
			continue
		}
		// Detach every finished or expired job before handling any:
		// handling releases successors, which could displace a heap head
		// a later detach pops.
		ended = ended[:0]
		for r := range e.ready {
			j := e.pick(r)
			if j == nil {
				continue
			}
			e.record(j, e.t, end)
			j.remaining -= end - e.t
			if j.remaining == 0 || j.expired(end) {
				e.detach(r)
				ended = append(ended, j)
			}
		}
		e.t = end
		// In resource order; a job that finishes exactly at its deadline
		// completes.
		for _, j := range ended {
			if j.remaining == 0 {
				e.complete(j)
			} else {
				e.abort(j)
			}
		}
		e.processArrivals(e.t)
	}
}

// record appends an execution slice to the trace, merging adjacent
// slices of the same job.
func (e *engine) record(j *job, from, to curves.Time) {
	if e.trace == nil || from == to {
		return
	}
	task := j.inst.state.chain.Tasks[j.taskIdx]
	e.trace.append(Slice{Task: task.Name, Chain: j.inst.state.chain.Name, From: from, To: to})
}
