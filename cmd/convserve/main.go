// Command convserve runs the converging-pairs pipeline as a long-lived
// HTTP/JSON service: edges stream in on /ingest, are frozen into immutable
// epochs on /seal, and budgeted top-k queries run over any retained
// (t1, t2) epoch window on /query. Every query is admitted against its
// tenant's SSSP allowance — the multi-tenant, always-on face of the same
// Algorithm 1 a one-shot convpairs run executes (results are bit-identical;
// see internal/serve).
//
// Usage:
//
//	convserve -addr :8080 -tenant alice=10000 -tenant bob=4000
//	curl --data-binary @data/Facebook.txt localhost:8080/ingest
//	curl -XPOST localhost:8080/seal
//	curl -d '{"tenant":"alice","selector":"MMSD","m":100,"k":20}' localhost:8080/query
//
// The obs flags (-metricsaddr, -events, -hold) work as in convpairs; the
// serving mux itself also exposes /metrics, /debug/events, and /debug/pprof.
// On SIGTERM or interrupt the daemon stops accepting requests, drains
// in-flight queries, flushes the flight recorder to -events, and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// tenantFlags collects repeatable -tenant name=limit declarations.
type tenantFlags []serve.TenantRequest

func (t *tenantFlags) String() string {
	parts := make([]string, len(*t))
	for i, d := range *t {
		parts[i] = fmt.Sprintf("%s=%d", d.Name, d.Limit)
	}
	return strings.Join(parts, ",")
}

func (t *tenantFlags) Set(s string) error {
	name, limitStr, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=limit, got %q", s)
	}
	limit, err := strconv.Atoi(limitStr)
	if err != nil {
		return fmt.Errorf("bad limit in %q: %v", s, err)
	}
	*t = append(*t, serve.TenantRequest{Name: name, Limit: limit})
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	universe := flag.Int("universe", 0, "minimum node-universe size for every epoch (0 grows with the edges)")
	retain := flag.Int("retain", 0, "epochs to retain (0 = unlimited; old unpinned epochs are pruned)")
	maxSessions := flag.Int("maxsessions", 0, "cached per-window query sessions (0 = default)")
	tenantLimit := flag.Int("tenantlimit", 0, "SSSP allowance for tenants auto-created by their first admitted query (0 = unlimited)")
	var tenants tenantFlags
	flag.Var(&tenants, "tenant", "declare a tenant as name=limit (repeatable; limit <= 0 = unlimited)")
	ocli := obs.BindCLIFlags(flag.CommandLine)
	flag.Parse()

	cfg := serve.Config{
		Universe:    *universe,
		Retain:      *retain,
		TenantLimit: *tenantLimit,
		MaxSessions: *maxSessions,
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := runDaemon(*addr, cfg, tenants, ocli, sig, nil); err != nil {
		fatal(err)
	}
}

// shutdownTimeout bounds how long in-flight queries may drain after a stop
// signal before the listener is torn down regardless.
const shutdownTimeout = 5 * time.Second

// runDaemon brings the service up and blocks until a stop signal arrives,
// then shuts down gracefully: flush the flight recorder first (so a
// supervisor's SIGKILL after its grace period can no longer lose the run
// records), drain in-flight requests, release the epoch pins, and run the
// obs teardown. If ready is non-nil, the bound listen address is sent on it
// once the server is accepting — the lifecycle test's synchronization point.
func runDaemon(addr string, cfg serve.Config, tenants []serve.TenantRequest, ocli *obs.CLI, sig <-chan os.Signal, ready chan<- string) error {
	if err := ocli.Start(); err != nil {
		return err
	}
	s := serve.New(cfg)
	defer s.Close()
	for _, t := range tenants {
		s.Registry().Tenant(t.Name, t.Limit)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Printf("convserve listening on http://%s (POST /ingest, /seal, /query)\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case got := <-sig:
		fmt.Printf("convserve: %v, shutting down\n", got)
	case err := <-serveErr:
		return err
	}

	// Events first: the recorder's contents are the part of the shutdown an
	// impatient supervisor can permanently destroy.
	if err := ocli.FlushEvents(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return ocli.Finish()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "convserve:", err)
	os.Exit(1)
}
