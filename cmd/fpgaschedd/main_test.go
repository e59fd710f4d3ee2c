package main

import (
	"io"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestRunBadFlags(t *testing.T) {
	if got := run([]string{"-nope"}, nil); got != 2 {
		t.Errorf("exit = %d, want 2", got)
	}
	if got := run([]string{"-workers", "0"}, nil); got != 2 {
		t.Errorf("exit = %d, want 2", got)
	}
	// The interval screen is a fixed property of each kernel, not a flag.
	if got := run([]string{"-screen=false"}, nil); got != 2 {
		t.Errorf("-screen exit = %d, want 2 (unknown flag)", got)
	}
	if got := run([]string{"-h"}, nil); got != 0 {
		t.Errorf("-h exit = %d, want 0 (help is not an error)", got)
	}
}

func TestRunBadAddr(t *testing.T) {
	if got := run([]string{"-addr", "256.0.0.1:http"}, nil); got != 1 {
		t.Errorf("exit = %d, want 1", got)
	}
}

// TestServeEndToEnd boots the daemon on an ephemeral port, exercises the
// analyze/admission flow over real TCP, and shuts it down with SIGTERM.
func TestServeEndToEnd(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0"}, ready) }()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case code := <-done:
		t.Fatalf("daemon exited early with %d", code)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not come up")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz = %d", resp.StatusCode)
	}

	body := `{"columns":10,"tests":["GN2"],"taskset":{"tasks":[
		{"name":"t1","c":"2.10","d":"5","t":"5","a":7},
		{"name":"t2","c":"2.00","d":"7","t":"7","a":7}]}}`
	resp, err = http.Post(base+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(data), `"schedulable": true`) {
		t.Errorf("analyze = %d: %s", resp.StatusCode, data)
	}

	req, _ := http.NewRequest("PUT", base+"/v1/controllers/t0", strings.NewReader(`{"columns":10}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Errorf("controller create = %d", resp.StatusCode)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit = %d, want 0", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

func TestRunPeerFlagValidation(t *testing.T) {
	if got := run([]string{"-self", "a"}, nil); got != 2 {
		t.Errorf("-self without -peers: exit = %d, want 2", got)
	}
	if got := run([]string{"-peers", "a=http://h:1"}, nil); got != 2 {
		t.Errorf("-peers without -self: exit = %d, want 2", got)
	}
	if got := run([]string{"-self", "x", "-peers", "a=http://h:1"}, nil); got != 2 {
		t.Errorf("-self not in -peers: exit = %d, want 2", got)
	}
	if got := run([]string{"-self", "a", "-peers", "garbage"}, nil); got != 2 {
		t.Errorf("malformed -peers: exit = %d, want 2", got)
	}
}

// TestPeerModeDegradedBoot boots one fleet member whose peer is dead
// and checks it serves everything itself: readiness, the cluster
// metrics section, a peer-owned analysis (degraded to local), and the
// readiness flip on SIGTERM-driven drain.
func TestPeerModeDegradedBoot(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-self", "a",
			// Peer b is a dead address: every fetch must fail fast and
			// degrade, never surface to the client.
			"-peers", "a=http://127.0.0.1:1,b=http://127.0.0.1:1",
			"-peer-timeout", "200ms",
		}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case code := <-done:
		t.Fatalf("daemon exited early with %d", code)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not come up")
	}

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("readyz = %d, want 200", resp.StatusCode)
	}

	// Analyses succeed no matter who owns the fingerprint: sets owned
	// by dead peer b fall back to local analysis.
	body := `{"columns":10,"tests":["GN2"],"taskset":{"tasks":[
		{"name":"t1","c":"2.10","d":"5","t":"5","a":7},
		{"name":"t2","c":"2.00","d":"7","t":"7","a":7}]}}`
	resp, err = http.Post(base+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(data), `"schedulable": true`) {
		t.Errorf("degraded analyze = %d: %s", resp.StatusCode, data)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(data), `"cluster"`) || !strings.Contains(string(data), `"self": "a"`) {
		t.Errorf("metrics missing cluster section: %s", data)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit = %d, want 0", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}
