package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"camc/internal/tuner"
)

func TestServerTimeoutsSet(t *testing.T) {
	srv := newServer(http.NotFoundHandler())
	for _, tc := range []struct {
		name string
		d    time.Duration
	}{
		{"ReadHeaderTimeout", srv.ReadHeaderTimeout},
		{"ReadTimeout", srv.ReadTimeout},
		{"WriteTimeout", srv.WriteTimeout},
		{"IdleTimeout", srv.IdleTimeout},
	} {
		if tc.d <= 0 {
			t.Errorf("%s = %v, want a positive bound", tc.name, tc.d)
		}
	}
}

// TestServeDrainsOnCancel starts the service on a loopback port, checks
// it answers, then cancels its context as SIGINT/SIGTERM would: serveMain
// must shut down cleanly and return 0.
func TestServeDrainsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- serveMain(ctx, "127.0.0.1:0", tuner.ServiceConfig{ProbeSizes: []int64{4 << 10}}, pw, &stderr)
		pw.Close()
	}()
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("no listening line: %v", err)
	}
	url, _, ok := strings.Cut(strings.TrimPrefix(line, "tuning service listening on "), " ")
	if !ok || !strings.HasPrefix(url, "http://127.0.0.1:") {
		t.Fatalf("unexpected listening line %q", line)
	}
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %s", resp.Status)
	}
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serveMain exit %d after cancel; stderr: %s", code, stderr.String())
		}
	case <-time.After(shutdownGrace + 5*time.Second):
		t.Fatal("serveMain did not return after cancel")
	}
	if !strings.Contains(stderr.String(), "shutting down") {
		t.Errorf("stderr missing the shutdown note: %q", stderr.String())
	}
}
