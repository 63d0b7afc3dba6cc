package model

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/curves"
)

// The JSON schema mirrors the paper's notation closely; see
// examples/casestudy for a full document. Kinds are "synchronous" or
// "asynchronous"; activation is a curves.Spec.

type taskSpec struct {
	Name     string      `json:"name"`
	Priority int         `json:"priority"`
	WCET     curves.Time `json:"wcet"`
	BCET     curves.Time `json:"bcet,omitempty"`
}

type chainSpec struct {
	Name       string      `json:"name"`
	Kind       string      `json:"kind,omitempty"` // default "synchronous"
	Overload   bool        `json:"overload,omitempty"`
	Deadline   curves.Time `json:"deadline,omitempty"`
	Activation curves.Spec `json:"activation"`
	Tasks      []taskSpec  `json:"tasks"`
}

type systemSpec struct {
	Name   string      `json:"name"`
	Chains []chainSpec `json:"chains"`
}

// spec converts the system to its serializable form. Systems whose
// activation models have no JSON spec (traces, sums) cannot be
// serialized and return an error.
func (s *System) spec() (systemSpec, error) {
	spec := systemSpec{Name: s.Name, Chains: make([]chainSpec, 0, len(s.Chains))}
	for _, c := range s.Chains {
		act, err := curves.SpecOf(c.Activation)
		if err != nil {
			return systemSpec{}, fmt.Errorf("model: chain %q: %w", c.Name, err)
		}
		cs := chainSpec{
			Name:       c.Name,
			Kind:       c.Kind.String(),
			Overload:   c.Overload,
			Deadline:   c.Deadline,
			Activation: act,
			Tasks:      make([]taskSpec, 0, len(c.Tasks)),
		}
		for _, t := range c.Tasks {
			cs.Tasks = append(cs.Tasks, taskSpec{Name: t.Name, Priority: t.Priority, WCET: t.WCET, BCET: t.BCET})
		}
		spec.Chains = append(spec.Chains, cs)
	}
	return spec, nil
}

// MarshalJSON implements json.Marshaler for System.
func (s *System) MarshalJSON() ([]byte, error) {
	spec, err := s.spec()
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(spec, "", "  ")
}

// UnmarshalJSON implements json.Unmarshaler for System. The decoded
// system is validated.
func (s *System) UnmarshalJSON(data []byte) error {
	var spec systemSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return err
	}
	out := System{Name: spec.Name, Chains: make([]*Chain, 0, len(spec.Chains))}
	for _, cs := range spec.Chains {
		kind := Synchronous
		switch cs.Kind {
		case "", "synchronous":
		case "asynchronous":
			kind = Asynchronous
		default:
			return fmt.Errorf("model: chain %q: unknown kind %q", cs.Name, cs.Kind)
		}
		act, err := cs.Activation.Model()
		if err != nil {
			return fmt.Errorf("model: chain %q: %w", cs.Name, err)
		}
		c := &Chain{Name: cs.Name, Kind: kind, Overload: cs.Overload, Deadline: cs.Deadline, Activation: act,
			Tasks: make([]Task, 0, len(cs.Tasks))}
		for _, ts := range cs.Tasks {
			c.Tasks = append(c.Tasks, Task{Name: ts.Name, Priority: ts.Priority, WCET: ts.WCET, BCET: ts.BCET})
		}
		out.Chains = append(out.Chains, c)
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*s = out
	return nil
}

// Load reads a JSON system description from r.
func Load(r io.Reader) (*System, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// UnmarshalJSON checks data itself; json.Unmarshal would scan it
	// once more first.
	var s System
	if err := s.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return &s, nil
}

// Store writes the system as indented JSON to w.
func Store(w io.Writer, s *System) error {
	data, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
