package model_test

import (
	"strings"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/curves"
	"repro/internal/model"
)

func TestCaseStudyValid(t *testing.T) {
	sys := casestudy.New()
	if err := sys.Validate(); err != nil {
		t.Fatalf("case study invalid: %v", err)
	}
	if got := sys.TaskCount(); got != 13 {
		t.Errorf("TaskCount = %d, want 13", got)
	}
	if got := len(sys.OverloadChains()); got != 2 {
		t.Errorf("overload chains = %d, want 2", got)
	}
	if got := len(sys.RegularChains()); got != 2 {
		t.Errorf("regular chains = %d, want 2", got)
	}
}

func TestChainAccessors(t *testing.T) {
	sys := casestudy.New()
	d := sys.ChainByName("sigma_d")
	if d == nil {
		t.Fatal("sigma_d not found")
	}
	if got := d.TotalWCET(); got != 115 {
		t.Errorf("TotalWCET(sigma_d) = %d, want 115", got)
	}
	if got := d.LowestPriority(); got != 2 {
		t.Errorf("LowestPriority(sigma_d) = %d, want 2", got)
	}
	if got := d.HighestPriority(); got != 11 {
		t.Errorf("HighestPriority(sigma_d) = %d, want 11", got)
	}
	if got := d.Header().Name; got != "tau1d" {
		t.Errorf("Header = %s, want tau1d", got)
	}
	if got := d.Tail().Name; got != "tau5d" {
		t.Errorf("Tail = %s, want tau5d", got)
	}
	if sys.ChainByName("nope") != nil {
		t.Error("ChainByName(nope) should be nil")
	}
}

func TestValidateRejects(t *testing.T) {
	mk := func(mut func(*model.System)) error {
		sys := casestudy.New().Clone()
		mut(sys)
		return sys.Validate()
	}
	tests := []struct {
		name string
		mut  func(*model.System)
		want string
	}{
		{"empty system", func(s *model.System) { s.Chains = nil }, "no chains"},
		{"empty chain", func(s *model.System) { s.Chains[0].Tasks = nil }, "no tasks"},
		{"nil activation", func(s *model.System) { s.Chains[0].Activation = nil }, "no activation"},
		{"negative deadline", func(s *model.System) { s.Chains[0].Deadline = -1 }, "negative deadline"},
		{"zero wcet", func(s *model.System) { s.Chains[0].Tasks[0].WCET = 0 }, "non-positive WCET"},
		{"bcet above wcet", func(s *model.System) { s.Chains[0].Tasks[0].BCET = 1000 }, "BCET"},
		{"duplicate priority", func(s *model.System) { s.Chains[0].Tasks[0].Priority = 1 }, "priority 1"},
		{"duplicate name", func(s *model.System) { s.Chains[0].Tasks[0].Name = "tau1c" }, "task name"},
		{"duplicate chain name", func(s *model.System) { s.ChainByName("sigma_a").Name = "sigma_b" },
			`chain name "sigma_b" used by both chains[2] and chains[3]`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := mk(tt.mut)
			if err == nil {
				t.Fatal("Validate accepted an invalid system")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestCloneIsDeep(t *testing.T) {
	sys := casestudy.New()
	cp := sys.Clone()
	cp.Chains[0].Tasks[0].Priority = 999
	cp.Chains[0].Deadline = 1
	if sys.Chains[0].Tasks[0].Priority == 999 {
		t.Error("Clone shares task slices")
	}
	if sys.Chains[0].Deadline == 1 {
		t.Error("Clone shares chain headers")
	}
}

func TestUtilization(t *testing.T) {
	b := model.NewBuilder("u")
	b.Chain("x").Periodic(100).Task("t1", 1, 50)
	sys := b.MustBuild()
	demand, window := sys.Utilization(1000)
	if demand != 500 || window != 1000 {
		t.Errorf("Utilization = %d/%d, want 500/1000", demand, window)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := model.NewBuilder("bad")
	b.Chain("x").Periodic(10).TaskBounds("t", 1, 9, 5)
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted BCET > WCET")
	}
}

func TestBuilderAsynchronous(t *testing.T) {
	b := model.NewBuilder("k")
	b.Chain("x").Asynchronous().Periodic(10).Task("t", 1, 1)
	sys := b.MustBuild()
	if sys.Chains[0].Kind != model.Asynchronous {
		t.Error("Asynchronous() not applied")
	}
	if got := sys.Chains[0].Kind.String(); got != "asynchronous" {
		t.Errorf("Kind.String() = %q", got)
	}
	if got := model.Kind(42).String(); got != "Kind(42)" {
		t.Errorf("unknown Kind.String() = %q", got)
	}
}

func TestWithPriorities(t *testing.T) {
	perm := []int{13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	sys, err := casestudy.WithPriorities(perm)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.ChainByName("sigma_d").Tasks[0].Priority; got != 13 {
		t.Errorf("tau1d priority = %d, want 13", got)
	}
	if got := sys.ChainByName("sigma_a").Tasks[1].Priority; got != 1 {
		t.Errorf("tau2a priority = %d, want 1", got)
	}
	// Duplicate priorities must be rejected.
	if _, err := casestudy.WithPriorities([]int{1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}); err == nil {
		t.Error("WithPriorities accepted duplicates")
	}
}

func TestRareOverload(t *testing.T) {
	sys := casestudy.RareOverload(10)
	a := sys.ChainByName("sigma_a").Activation.(curves.Sporadic)
	if a.MinDistance != 7000 {
		t.Errorf("scaled sigma_a distance = %d, want 7000", a.MinDistance)
	}
	if sys.ChainByName("sigma_c").Activation.(curves.Periodic).Period != 200 {
		t.Error("RareOverload touched a regular chain")
	}
}
