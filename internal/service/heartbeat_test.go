package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// hbFixture builds a heartbeat over a real 3-peer store with a
// scripted probe: outcomes[peer] is consumed one error per probe
// (nil = healthy), sticking on the last entry when exhausted.
func hbFixture(t *testing.T) (*heartbeat, *store.Store, map[string][]error) {
	t.Helper()
	peers := []string{"http://a", "http://b", "http://c"}
	st := store.New(store.Config{Self: "http://a", Peers: peers})
	outcomes := map[string][]error{}
	h := newHeartbeat(st, newMetrics(func() int { return 0 }), time.Second, 1)
	h.probe = func(_ context.Context, peer string) error {
		script := outcomes[peer]
		if len(script) == 0 {
			return nil
		}
		err := script[0]
		if len(script) > 1 {
			outcomes[peer] = script[1:]
		}
		return err
	}
	return h, st, outcomes
}

// TestHeartbeatStateMachine drives the per-peer state machine through
// its edges on scripted probes: heartbeatDownAfter consecutive
// failures evict, a single blip does not, a dead peer stays down round
// after round (there is no cooldown), and one success restores it.
func TestHeartbeatStateMachine(t *testing.T) {
	h, st, outcomes := hbFixture(t)
	boom := errors.New("probe failed")
	ctx := context.Background()

	// One blip: below the threshold, nothing marked.
	outcomes["http://b"] = []error{boom, nil}
	h.runOnce(ctx)
	if st.Down("http://b") {
		t.Fatal("single probe failure evicted the peer")
	}

	// The blip healed, then two consecutive failures: evicted.
	h.runOnce(ctx) // the scripted nil heals the streak
	outcomes["http://b"] = []error{boom}
	h.runOnce(ctx) // fail 1
	if st.Down("http://b") {
		t.Fatal("evicted before heartbeatDownAfter consecutive failures")
	}
	h.runOnce(ctx) // fail 2 -> down edge
	if !st.Down("http://b") {
		t.Fatal("heartbeatDownAfter consecutive failures did not evict")
	}
	h.runOnce(ctx) // fail 3: still down, no second edge
	if got := st.Membership().Down; len(got) != 1 || got[0] != "http://b" {
		t.Fatalf("Membership().Down = %v, want [http://b]", got)
	}

	// Recovery: one success restores.
	outcomes["http://b"] = []error{nil}
	h.runOnce(ctx)
	if st.Down("http://b") {
		t.Fatal("a successful probe did not restore the peer")
	}

	h.met.mu.Lock()
	ups, downs := h.met.heartbeatUps, h.met.heartbeatDowns
	okProbes, failProbes := h.met.heartbeatOK, h.met.heartbeatFail
	h.met.mu.Unlock()
	if ups != 1 || downs != 1 {
		t.Errorf("transitions = %d up / %d down, want 1/1", ups, downs)
	}
	// 6 rounds x 2 remote peers; http://c's empty script is always ok.
	if okProbes+failProbes != 12 {
		t.Errorf("probes = %d ok + %d fail, want 12 total", okProbes, failProbes)
	}
}

// TestHeartbeatJitterDeterministic: the jittered interval stays within
// ±20% of the configured interval and is a pure function of (seed,
// round) — no shared RNG, so replicas desynchronize reproducibly.
func TestHeartbeatJitterDeterministic(t *testing.T) {
	st := store.New(store.Config{Self: "http://a", Peers: []string{"http://a", "http://b"}})
	a := newHeartbeat(st, newMetrics(func() int { return 0 }), time.Second, 42)
	b := newHeartbeat(st, newMetrics(func() int { return 0 }), time.Second, 42)
	lo, hi := 800*time.Millisecond, 1200*time.Millisecond
	distinct := map[time.Duration]bool{}
	for round := uint64(0); round < 50; round++ {
		d := a.jittered(round)
		if d < lo || d > hi {
			t.Fatalf("jittered(%d) = %v, outside [%v, %v]", round, d, lo, hi)
		}
		if d != b.jittered(round) {
			t.Fatalf("jittered(%d) differs across same-seed instances", round)
		}
		distinct[d] = true
	}
	if len(distinct) < 10 {
		t.Errorf("only %d distinct jittered intervals over 50 rounds", len(distinct))
	}
}

// TestHeartbeatLoopShutdown: the loop ticks on the injected timer
// source, probes each tick, and exits promptly when its context is
// canceled; a server on a multi-peer ring always runs the loop, and
// its Close waits for it (a hang fails the test by timeout).
func TestHeartbeatLoopShutdown(t *testing.T) {
	h, _, _ := hbFixture(t)
	ticks := make(chan time.Time)
	probed := make(chan string, 16)
	h.after = func(time.Duration) <-chan time.Time { return ticks }
	h.probe = func(_ context.Context, peer string) error {
		probed <- peer
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		h.loop(ctx)
	}()

	for i := 0; i < 3; i++ {
		ticks <- time.Time{}
		for _, want := range []string{"http://b", "http://c"} {
			select {
			case peer := <-probed:
				if peer != want {
					t.Fatalf("round %d probed %q, want %q", i, peer, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: tick did not trigger a probe of %s", i, want)
			}
		}
	}
	cancel()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("canceling the context did not stop the heartbeat loop")
	}

	peers := []string{"http://self.invalid", "http://peer.invalid"}
	svc, err := New(Config{Self: peers[0], Peers: peers, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if svc.hb == nil || svc.hbStopped == nil {
		t.Fatal("a server on a multi-peer ring started without its prober")
	}
	done := make(chan struct{})
	go func() { svc.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not stop the heartbeat loop")
	}
}

// TestClusterDownStateOneSource is the one-source oracle for peer down-state.
// A heartbeat on a fake clock is fed scripted relay reports and probe
// outcomes — one report arriving while a probe of the same peer is in
// flight — and after every step three views must agree with the
// expected down set: the peers routing skips, the store's down set the
// heartbeat writes, and the "down" peers of GET /v1/cluster.
func TestClusterDownStateOneSource(t *testing.T) {
	const a, b, c = "http://a", "http://b", "http://c"
	svc, err := New(Config{Self: a, Peers: []string{a, b, c}, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	// The test's heartbeat writes the server's store; the server's own
	// prober sleeps out its hour and never probes during the test.
	var (
		outcome  map[string]error
		hold     string
		ticks    = make(chan time.Time)
		roundEnd = make(chan struct{}, 1)
		inFlight = make(chan struct{})
		release  = make(chan struct{})
	)
	h := newHeartbeat(svc.store, svc.met, time.Hour, 1)
	h.after = func(time.Duration) <-chan time.Time {
		roundEnd <- struct{}{}
		return ticks
	}
	h.probe = func(_ context.Context, peer string) error {
		if peer == hold {
			inFlight <- struct{}{}
			<-release
		}
		return outcome[peer]
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		h.loop(ctx)
	}()
	defer func() { cancel(); <-stopped }()
	<-roundEnd // the loop waits for its first tick

	views := func() map[string]string {
		var routing []string
		for _, p := range []string{b, c} {
			owns := false
			for i := 0; i < 300 && !owns; i++ {
				owner, local := svc.store.Route(fmt.Sprintf("k%d", i))
				owns = !local && owner == p
			}
			if !owns {
				routing = append(routing, p)
			}
		}
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster", nil))
		var view clusterResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
			t.Fatal(err)
		}
		var cluster []string
		for _, p := range view.Peers {
			if p.State == "down" {
				cluster = append(cluster, p.URL)
			}
		}
		sort.Strings(cluster)
		return map[string]string{
			"routing":  strings.Join(routing, ","),
			"down set": strings.Join(svc.store.Membership().Down, ","),
			"cluster":  strings.Join(cluster, ","),
		}
	}
	check := func(step string, want []string) {
		t.Helper()
		for view, got := range views() {
			if got != strings.Join(want, ",") {
				t.Errorf("%s: %s view = [%s], want %v", step, view, got, want)
			}
		}
	}

	boom := errors.New("probe failed")
	steps := []struct {
		name   string
		report []string
		// probe scripts one probe round (absent peers answer healthy);
		// nil means no round in this step.
		probe map[string]error
		// reportInFlight is reported while its own probe is in flight;
		// midWant is the down set at that moment.
		reportInFlight string
		midWant        []string
		want           []string
	}{
		{name: "healthy round", probe: map[string]error{}},
		{name: "relay report marks down at once", report: []string{b}, want: []string{b}},
		{name: "repeat report changes nothing", report: []string{b}, want: []string{b}},
		{name: "one failed probe is a blip", probe: map[string]error{b: boom, c: boom}, want: []string{b}},
		{name: "second failed probe evicts", probe: map[string]error{b: boom, c: boom}, want: []string{b, c}},
		{name: "one success restores", probe: map[string]error{c: boom}, want: []string{c}},
		{name: "probe success landing after a report restores", probe: map[string]error{},
			reportInFlight: b, midWant: []string{b, c}},
		{name: "report of a non-member is ignored", report: []string{"http://stranger"}},
	}
	for _, st := range steps {
		for _, p := range st.report {
			h.report(p)
		}
		if st.probe != nil {
			outcome, hold = st.probe, st.reportInFlight
			ticks <- time.Time{}
			if hold != "" {
				<-inFlight
				h.report(hold)
				check(st.name+" (probe in flight)", st.midWant)
				release <- struct{}{}
			}
			<-roundEnd
		}
		check(st.name, st.want)
	}

	svc.met.mu.Lock()
	ups, downs := svc.met.heartbeatUps, svc.met.heartbeatDowns
	svc.met.mu.Unlock()
	if ups != 3 || downs != 3 {
		t.Errorf("transitions = %d up / %d down, want 3/3", ups, downs)
	}
}
