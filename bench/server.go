package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/serve"
)

// liveServer is a serve.Server behind a real loopback HTTP listener.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ls := &liveServer{srv: serve.New(serve.Config{}), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	ls.hs = &http.Server{Handler: ls.srv.Handler()}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	return ls, nil
}

// close stops the listener, waits for the serving goroutine to exit, and
// releases the server's epoch pins.
func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	ls.srv.Close()
	return err
}

// newClient returns the benchmark's HTTP client: at most two connections,
// matching the at-most-two client goroutines of every workload.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
}

// post sends body and decodes a 200 response into out (when non-nil). A
// non-200 status is returned as an error carrying the server's message.
func post(cl *http.Client, url string, body []byte, out any) error {
	resp, err := cl.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s: read response: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s: decode response: %w", url, err)
		}
	}
	return nil
}

// postQuery sends one query as a tenant.
func postQuery(cl *http.Client, url, tenant string, q serve.QueryRequest) (*serve.QueryResponse, error) {
	q.Tenant = tenant
	body, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	var resp serve.QueryResponse
	if err := post(cl, url+"/query", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// setUp brings up a fresh server and seals the workload's initial epochs over
// HTTP. It returns the server and the time from serve.New to the last seal.
func setUp(w workload, in *inputs, cl *http.Client) (*liveServer, time.Duration, error) {
	start := time.Now()
	ls, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	for _, text := range in.setupText {
		err := post(cl, ls.url+"/ingest", text, nil)
		if err == nil {
			err = post(cl, ls.url+"/seal", nil, nil)
		}
		if err != nil {
			ls.close()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	return ls, time.Since(start), nil
}
