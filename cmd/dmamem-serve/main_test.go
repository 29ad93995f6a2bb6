package main

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestParseWeights(t *testing.T) {
	got, err := parseWeights("acme=2,batch=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]float64{"acme": 2, "batch": 0.5}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseWeights = %v, want %v", got, want)
	}
	if got, err := parseWeights(""); err != nil || got != nil {
		t.Errorf("empty weights: %v, %v", got, err)
	}
	for _, bad := range []string{"acme", "acme=", "acme=zero", "acme=-1", "acme=0", "=2"} {
		if _, err := parseWeights(bad); err == nil {
			t.Errorf("parseWeights(%q) accepted", bad)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-weights", "acme=nope"}, nil); err == nil {
		t.Error("run accepted a malformed -weights value")
	}
	if err := run([]string{"-no-such-flag"}, nil); err == nil {
		t.Error("run accepted an unknown flag")
	}
	if err := run([]string{"-listen", "127.0.0.1:notaport"}, nil); err == nil {
		t.Error("run accepted an unresolvable listen address")
	}
	// The bad listen address keeps a missing check from starting a
	// daemon; the error must name the count flag, not the address.
	for _, bad := range [][]string{
		{"-workers", "0"}, {"-workers", "-1"},
		{"-point-parallel", "0"}, {"-point-parallel", "-2"},
	} {
		args := append(bad, "-listen", "127.0.0.1:notaport")
		if err := run(args, nil); err == nil || !strings.Contains(err.Error(), bad[0]+" "+bad[1]+" must be at least 1") {
			t.Errorf("run(%v) = %v, want a %s rejection", args, err, bad[0])
		}
	}
}

// TestRunEndToEnd drives the real daemon entrypoint: run() on an
// ephemeral port, a grid job over loopback HTTP, a metrics read, then
// SIGINT and a clean exit — the same lifecycle the CI smoke step
// exercises against the built binary.
func TestRunEndToEnd(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-workers", "1", "-quota", "4", "-weights", "acme=2"}, func(addr string) {
			ready <- addr
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	body := `{"Tenant":"acme","Grid":{"Name":"noop","Points":3}}`
	resp, err = http.Post(base+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	result, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid job = %d (%s), want 200", resp.StatusCode, result)
	}
	var points []map[string]any
	if err := json.Unmarshal(result, &points); err != nil {
		t.Fatalf("grid result is not a JSON array: %v\n%s", err, result)
	}
	if len(points) != 3 {
		t.Fatalf("grid result has %d points, want 3", len(points))
	}

	resp, err = http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "dmamem_jobs_completed 1") {
		t.Errorf("metrics missing completed-job count:\n%s", metrics)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGINT, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down after SIGINT")
	}
}
