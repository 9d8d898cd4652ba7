package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// TestDaemonLifecycle drives runDaemon through a full service run: start,
// ingest, seal, query, then a SIGTERM that must drain the server, flush the
// flight recorder to -events, and return cleanly. This pins the graceful
// shutdown contract the README documents for supervised deployments.
func TestDaemonLifecycle(t *testing.T) {
	events := filepath.Join(t.TempDir(), "events.jsonl")
	fs := flag.NewFlagSet("convserve-test", flag.ContinueOnError)
	ocli := obs.BindCLIFlags(fs)
	if err := fs.Parse([]string{"-events", events}); err != nil {
		t.Fatal(err)
	}

	sig := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	cfg := serve.Config{}
	tenants := []serve.TenantRequest{{Name: "ops", Limit: 0}}
	go func() {
		done <- runDaemon("127.0.0.1:0", cfg, tenants, ocli, sig, ready)
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

	// Ingest a small random stream, sealing an epoch at 80% and at the end.
	rng := rand.New(rand.NewSource(7))
	var stream strings.Builder
	for v := 1; v < 120; v++ {
		fmt.Fprintf(&stream, "%d %d %d\n", rng.Intn(v), v, v)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(stream.String(), "\n"), "\n")
	cut := len(lines) * 8 / 10
	for _, part := range []string{strings.Join(lines[:cut], ""), strings.Join(lines[cut:], "")} {
		resp, err := http.Post(base+"/ingest", "text/plain", strings.NewReader(part))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/ingest status %d", resp.StatusCode)
		}
		resp, err = http.Post(base+"/seal", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/seal status %d", resp.StatusCode)
		}
	}

	q, _ := json.Marshal(serve.QueryRequest{Tenant: "ops", Selector: "MMSD", M: 10, L: 4, K: 5, Seed: 1})
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	var qr serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query status %d", resp.StatusCode)
	}
	if qr.Report.SSSPSpent == 0 {
		t.Error("query spent no budget")
	}

	// Something for the flight recorder to flush (queries themselves do not
	// append run records; daemons record their own lifecycle events).
	obs.Flight.Append(obs.RunRecord{Kind: "convserve-test", Outcome: "ok"})

	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runDaemon: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down after SIGTERM")
	}

	// The listener must be closed...
	if _, err := http.Get(base + "/epochs"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
	// ...and the flight recorder flushed to the -events file.
	f, err := os.Open(events)
	if err != nil {
		t.Fatalf("-events file not written on SIGTERM: %v", err)
	}
	defer f.Close()
	found := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec obs.RunRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL record: %v", err)
		}
		if rec.Kind == "convserve-test" {
			found = true
		}
	}
	if !found {
		t.Error("flushed events file is missing the appended record")
	}
}

// TestTenantFlag pins the -tenant name=limit parser.
func TestTenantFlag(t *testing.T) {
	var tf tenantFlags
	for _, bad := range []string{"alice", "=5", "alice=", "alice=x"} {
		if err := tf.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
	tf = nil
	if err := tf.Set("alice=100"); err != nil {
		t.Fatal(err)
	}
	if err := tf.Set("bob=0"); err != nil {
		t.Fatal(err)
	}
	want := tenantFlags{{Name: "alice", Limit: 100}, {Name: "bob", Limit: 0}}
	if len(tf) != 2 || tf[0] != want[0] || tf[1] != want[1] {
		t.Errorf("parsed %+v, want %+v", tf, want)
	}
	if got := tf.String(); got != "alice=100,bob=0" {
		t.Errorf("String() = %q", got)
	}
}
