package main

import (
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// syncBuffer is a strings.Builder safe for the writer (run's goroutine)
// and the reader (the test) to share.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeAndShutdown boots the daemon on an ephemeral port, checks
// liveness over real HTTP, and verifies SIGINT drains it cleanly.
func TestServeAndShutdown(t *testing.T) {
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0"}, &out) }()

	// Wait for the announced address.
	addrRe := regexp.MustCompile(`listening on (\S+)`)
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; output: %q", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz = %d, want 200", resp.StatusCode)
	}

	// run registers its signal handler before announcing the address, so
	// a self-delivered SIGINT exercises the graceful drain path.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned error on shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down within 10s of SIGINT")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("missing shutdown message; output: %q", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out syncBuffer
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("bogus flag accepted")
	}
	if err := run([]string{"-addr", "256.0.0.1:bad"}, &out); err == nil {
		t.Error("unlistenable address accepted")
	}
	if err := run([]string{"-cache", "-1"}, &out); err == nil {
		t.Error("negative cache size accepted")
	}
	if err := run([]string{"-drain", "-1s"}, &out); err == nil {
		t.Error("negative drain window accepted")
	}
	if err := run([]string{"-faults", "no.such.point:error"}, &out); err == nil {
		t.Error("bogus fault spec accepted")
	}
	if err := run([]string{"-self", "10.0.0.1:8443", "-peers", "10.0.0.1:8443,10.0.0.2:8443"}, &out); err == nil {
		t.Error("schemeless peer URLs accepted")
	}
}

// TestFaultSpecLogged boots with an armed harness and verifies the plan
// is announced before the listener, then shuts down.
func TestFaultSpecLogged(t *testing.T) {
	defer faultinject.Disarm()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-faults", "ilp.branch:budget:every=1000000"}, &out)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(out.String(), "listening on") {
		if time.Now().After(deadline) {
			t.Fatalf("server never came up; output: %q", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(out.String(), "faultinject: ilp.branch: budget every=1000000") {
		t.Errorf("armed plan not logged; output: %q", out.String())
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned error on shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}
