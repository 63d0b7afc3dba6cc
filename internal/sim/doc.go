// Package sim is a discrete-event simulator for Static Priority
// Preemptive (SPP) systems with task chains, matching the execution
// semantics of §II of the paper:
//
//   - the processor always runs the highest-priority ready job and
//     preemption is immediate;
//   - finishing task τ^i of a chain instance activates τ^{i+1};
//   - synchronous chains admit one in-flight instance — later
//     activations queue at the header until the previous instance
//     finished — while asynchronous chains pipeline instances;
//   - the scheduler is deadline-agnostic: instances always run to
//     completion, whether or not their deadline has passed.
//
// Config.Policy selects other scheduling policies, and Config.Mapping
// spreads the tasks over several resources that execute in parallel.
// There is one event loop: it keeps a ready queue per resource, indexed
// in sorted resource-name order, and handles the resources in that
// fixed order at every step. An unmapped run is the one-resource case.
//
// The simulator serves two purposes: it validates the analyses (the
// worst latency it observes must never exceed WCL, and the misses it
// counts in any k-window must never exceed dmm(k)), and it provides
// empirical lower bounds showing how tight the bounds are. Arrival and
// execution times are generated by pluggable, seeded policies, so runs
// are reproducible.
package sim
