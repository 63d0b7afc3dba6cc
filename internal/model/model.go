package model

import (
	"fmt"
	"strings"

	"repro/internal/curves"
)

// Task is one task of a chain. Priorities are arbitrary integers where
// larger means more important (the paper's π notation); they must be
// unique across the whole system. WCET is the upper execution time bound
// C; BCET is the lower bound (the paper uses 0).
type Task struct {
	Name     string
	Priority int
	WCET     curves.Time
	BCET     curves.Time
}

func (t Task) String() string {
	return fmt.Sprintf("%s[π=%d C=%d]", t.Name, t.Priority, t.WCET)
}

// Kind distinguishes synchronous from asynchronous chains (§II of the
// paper).
type Kind int

const (
	// Synchronous chains admit only one in-flight instance: an incoming
	// activation waits until the previous instance of the chain finished.
	Synchronous Kind = iota
	// Asynchronous chains process every activation independently.
	Asynchronous
)

func (k Kind) String() string {
	switch k {
	case Synchronous:
		return "synchronous"
	case Asynchronous:
		return "asynchronous"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Chain is a task chain σ: a finite sequence of distinct tasks that
// activate each other, with an activation model at the input of the
// first (header) task.
type Chain struct {
	Name       string
	Kind       Kind
	Tasks      []Task
	Activation curves.EventModel
	// Deadline is the relative end-to-end deadline D; 0 means the chain
	// has no deadline (typical for pure overload chains).
	Deadline curves.Time
	// Overload marks the chain as a member of C_over, the rarely
	// activated chains that cause transient overload.
	Overload bool
}

// Len returns the number of tasks n_a in the chain.
func (c *Chain) Len() int { return len(c.Tasks) }

// Header returns the first task of the chain.
func (c *Chain) Header() Task { return c.Tasks[0] }

// Tail returns the last task of the chain.
func (c *Chain) Tail() Task { return c.Tasks[len(c.Tasks)-1] }

// TotalWCET returns C_σ, the sum of the execution time bounds of all
// tasks in the chain. It is called from every busy-window iteration,
// so the sum stays raw: WCETs are validated finite model inputs
// (Validate enforces WCET > 0), never the Infinity sentinel, and a
// per-chain sum cannot approach 2^63.
func (c *Chain) TotalWCET() curves.Time {
	var sum curves.Time
	for _, t := range c.Tasks {
		//twcalint:ignore saturation WCETs are validated finite inputs, hot path of the busy-window fixed point
		sum += t.WCET
	}
	return sum
}

// LowestPriority returns min{π_j} over the chain's tasks.
func (c *Chain) LowestPriority() int {
	min := c.Tasks[0].Priority
	for _, t := range c.Tasks[1:] {
		if t.Priority < min {
			min = t.Priority
		}
	}
	return min
}

// HighestPriority returns max{π_j} over the chain's tasks.
func (c *Chain) HighestPriority() int {
	max := c.Tasks[0].Priority
	for _, t := range c.Tasks[1:] {
		if t.Priority > max {
			max = t.Priority
		}
	}
	return max
}

func (c *Chain) String() string {
	names := make([]string, len(c.Tasks))
	for i, t := range c.Tasks {
		names[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(names, "→"))
}

// System is a uniprocessor SPP system: a finite set of disjoint task
// chains sharing one processor.
type System struct {
	Name   string
	Chains []*Chain
}

// ChainByName returns the chain with the given name, or nil.
func (s *System) ChainByName(name string) *Chain {
	for _, c := range s.Chains {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// OverloadChains returns the chains in C_over in system order.
func (s *System) OverloadChains() []*Chain {
	var out []*Chain
	for _, c := range s.Chains {
		if c.Overload {
			out = append(out, c)
		}
	}
	return out
}

// RegularChains returns the chains not in C_over in system order.
func (s *System) RegularChains() []*Chain {
	var out []*Chain
	for _, c := range s.Chains {
		if !c.Overload {
			out = append(out, c)
		}
	}
	return out
}

// TaskCount returns the total number of tasks in the system.
func (s *System) TaskCount() int {
	n := 0
	for _, c := range s.Chains {
		n += c.Len()
	}
	return n
}

// Validate checks the structural assumptions of the analyses:
//
//   - the system has at least one chain and every chain at least one task;
//   - every chain has an activation model;
//   - chain names are unique, and so are task names system-wide and
//     priorities (the paper assumes a strict priority order);
//   - execution time bounds satisfy 0 ≤ BCET ≤ WCET and WCET > 0;
//   - deadlines are non-negative.
//
// It returns the first violation found, or nil.
func (s *System) Validate() error {
	if len(s.Chains) == 0 {
		return fmt.Errorf("model: system %q has no chains", s.Name)
	}
	prios := make(map[int]string)
	names := make(map[string]string)
	chains := make(map[string]int, len(s.Chains))
	for i, c := range s.Chains {
		if c == nil {
			return fmt.Errorf("model: system %q contains a nil chain", s.Name)
		}
		if prev, dup := chains[c.Name]; dup {
			return fmt.Errorf("model: chain name %q used by both chains[%d] and chains[%d]", c.Name, prev, i)
		}
		chains[c.Name] = i
		if c.Len() == 0 {
			return fmt.Errorf("model: chain %q has no tasks", c.Name)
		}
		if c.Activation == nil {
			return fmt.Errorf("model: chain %q has no activation model", c.Name)
		}
		if c.Deadline < 0 {
			return fmt.Errorf("model: chain %q has negative deadline %d", c.Name, c.Deadline)
		}
		for _, t := range c.Tasks {
			if t.WCET <= 0 {
				return fmt.Errorf("model: task %q has non-positive WCET %d", t.Name, t.WCET)
			}
			if t.BCET < 0 || t.BCET > t.WCET {
				return fmt.Errorf("model: task %q has BCET %d outside [0, WCET=%d]", t.Name, t.BCET, t.WCET)
			}
			if prev, dup := names[t.Name]; dup {
				return fmt.Errorf("model: task name %q used in chains %q and %q", t.Name, prev, c.Name)
			}
			names[t.Name] = c.Name
			if prev, dup := prios[t.Priority]; dup {
				return fmt.Errorf("model: priority %d used by both %q and %q", t.Priority, prev, t.Name)
			}
			prios[t.Priority] = t.Name
		}
	}
	return nil
}

// Utilization returns the long-term processor utilization of the system
// as a rational pair (num, den): Σ_chains C_chain · η+_chain(H) / H for
// a large horizon H. Utilization ≥ 1 implies that busy windows need not
// close and latency analyses can diverge.
func (s *System) Utilization(horizon curves.Time) (demand curves.Time, window curves.Time) {
	if horizon <= 0 {
		horizon = 1 << 30
	}
	var sum curves.Time
	for _, c := range s.Chains {
		sum = curves.AddSat(sum, curves.MulSat(c.TotalWCET(), c.Activation.EtaPlus(horizon)))
	}
	return sum, horizon
}

// Clone returns a deep copy of the system. Event models are immutable
// values in this library and are shared.
func (s *System) Clone() *System {
	out := &System{Name: s.Name}
	for _, c := range s.Chains {
		cc := &Chain{
			Name:       c.Name,
			Kind:       c.Kind,
			Tasks:      append([]Task(nil), c.Tasks...),
			Activation: c.Activation,
			Deadline:   c.Deadline,
			Overload:   c.Overload,
		}
		out.Chains = append(out.Chains, cc)
	}
	return out
}
