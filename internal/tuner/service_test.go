package tuner

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"camc/internal/arch"
	"camc/internal/core"
)

func TestAmbientBucket(t *testing.T) {
	cases := map[int]int{0: 0, 1: 2, 4: 2, 5: 8, 16: 8, 17: 32, 100: 32}
	for in, want := range cases {
		if got := AmbientBucket(in); got != want {
			t.Errorf("AmbientBucket(%d) = %d, want %d", in, got, want)
		}
	}
}

// fakeTune builds an instant table whose entry name encodes the tuning
// inputs, so tests can see exactly what each cache entry was tuned for.
func fakeTune(calls *int64) func(a *arch.Profile, cfg Config) *Table {
	return func(a *arch.Profile, cfg Config) *Table {
		atomic.AddInt64(calls, 1)
		t := &Table{Arch: a.Name, Procs: cfg.Procs, Entries: map[core.Kind][]Entry{}}
		for _, k := range cfg.Kinds {
			t.Entries[k] = []Entry{{MaxSize: math.MaxInt64, Name: "fake", Latency: float64(cfg.Ambient), Probe: 1}}
		}
		return t
	}
}

func TestPlanCacheHitMiss(t *testing.T) {
	var calls int64
	s := NewService(ServiceConfig{Tune: fakeTune(&calls)})
	req := PlanRequest{Arch: "knl", Kind: core.KindScatter, Size: 1 << 20}

	r1, err := s.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached || calls != 1 {
		t.Fatalf("first plan: cached=%v calls=%d, want fresh single tune", r1.Cached, calls)
	}
	r2, err := s.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached || calls != 1 {
		t.Fatalf("second plan: cached=%v calls=%d, want cache hit", r2.Cached, calls)
	}
	// Same bucket, different raw ambient: still a hit.
	req.Ambient = 3 // bucket 2
	if _, err := s.Plan(req); err != nil {
		t.Fatal(err)
	}
	req.Ambient = 1 // same bucket 2
	r4, err := s.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if !r4.Cached || calls != 2 {
		t.Fatalf("same-bucket plan: cached=%v calls=%d, want hit on 2 tables", r4.Cached, calls)
	}
	// Different kind: its own cache entry.
	if _, err := s.Plan(PlanRequest{Arch: "knl", Kind: core.KindBcast, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("kind miss: calls=%d, want 3", calls)
	}
	st := s.Stats()
	if st.Misses != 3 || st.Hits != 2 {
		t.Fatalf("stats %+v, want 3 misses / 2 hits", st)
	}
}

func TestPlanRejectsBadRequests(t *testing.T) {
	s := NewService(ServiceConfig{Tune: fakeTune(new(int64))})
	bad := []PlanRequest{
		{Arch: "nope", Kind: core.KindScatter, Size: 1},
		{Arch: "knl", Kind: "sort", Size: 1},
		{Arch: "knl", Kind: core.KindScatter, Size: -1},
		{Arch: "knl", Kind: core.KindScatter, Size: 1, Ambient: -2},
	}
	for _, req := range bad {
		if _, err := s.Plan(req); err == nil {
			t.Errorf("Plan(%+v) accepted, want error", req)
		}
	}
}

// TestPlanBoundsProcs: procs is bounded by the profile's hardware
// threads (Sockets × CoresPerSocket × ThreadsPerCore), so no request can
// start an Autotune larger than the machine; a rejected request never
// reaches the tuner.
func TestPlanBoundsProcs(t *testing.T) {
	for _, c := range []struct {
		arch  string
		procs int
		ok    bool
	}{
		{"knl", 0, true}, // architecture default
		{"knl", 1, true},
		{"knl", 272, true},
		{"knl", 273, false},
		{"knl", -1, false},
		{"knl", 10000000, false},
		{"broadwell", 28, true},
		{"broadwell", 29, false},
		{"power8", 160, true},
		{"power8", 161, false},
	} {
		var tunes int64
		s := NewService(ServiceConfig{Tune: fakeTune(&tunes)})
		_, err := s.Plan(PlanRequest{Arch: c.arch, Kind: core.KindScatter, Size: 4096, Procs: c.procs})
		if (err == nil) != c.ok {
			t.Errorf("%s procs=%d: err %v, want ok=%v", c.arch, c.procs, err, c.ok)
		}
		if st := s.Stats(); !c.ok && (tunes != 0 || st.Misses != 0) {
			t.Errorf("%s procs=%d: rejected request tuned (%d tunes, %d misses)", c.arch, c.procs, tunes, st.Misses)
		}
	}
}

// TestSingleFlight pins the de-dup: many concurrent misses on one key
// run exactly one tune; everyone else waits and shares its table.
func TestSingleFlight(t *testing.T) {
	const waiters = 8
	var calls int64
	gate := make(chan struct{})
	entered := make(chan struct{})
	s := NewService(ServiceConfig{Tune: func(a *arch.Profile, cfg Config) *Table {
		atomic.AddInt64(&calls, 1)
		close(entered)
		<-gate
		return fakeTune(new(int64))(a, cfg)
	}})
	req := PlanRequest{Arch: "knl", Kind: core.KindGather, Size: 4 << 10}

	results := make(chan PlanResponse, waiters+1)
	errs := make(chan error, waiters+1)
	go func() {
		r, err := s.Plan(req)
		results <- r
		errs <- err
	}()
	<-entered // the leader is inside the tune
	for i := 0; i < waiters; i++ {
		go func() {
			r, err := s.Plan(req)
			results <- r
			errs <- err
		}()
	}
	// Wait until every follower has joined the in-flight tune.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Shared != waiters {
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v: followers never joined the flight", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	var algos []string
	for i := 0; i < waiters+1; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		algos = append(algos, (<-results).Algorithm)
	}
	if calls != 1 {
		t.Fatalf("tune ran %d times for one key, want 1", calls)
	}
	for _, a := range algos {
		if a != "fake" {
			t.Fatalf("mixed answers %v", algos)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Shared != waiters {
		t.Fatalf("stats %+v, want 1 miss / %d shared", st, waiters)
	}
}

// TestServiceMatchesFreshAutotune is the acceptance check: a cached
// plan is byte-identical to what a fresh Autotune at the same key
// produces.
func TestServiceMatchesFreshAutotune(t *testing.T) {
	probes := []int64{4 << 10, 256 << 10}
	s := NewService(ServiceConfig{ProbeSizes: probes})
	req := PlanRequest{Arch: "knl", Kind: core.KindScatter, Size: 256 << 10, Ambient: 8}
	first, err := s.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	cachedResp, err := s.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := arch.ByName("knl")
	fresh := Autotune(prof, Config{ProbeSizes: probes, Ambient: AmbientBucket(req.Ambient), Kinds: []core.Kind{req.Kind}})
	want := fresh.Lookup(req.Kind, req.Size)
	for name, got := range map[string]PlanResponse{"fresh": first, "cached": cachedResp} {
		if got.Algorithm != want.Name || got.Latency != want.Latency || got.Probe != want.Probe || got.MaxSize != want.MaxSize {
			t.Errorf("%s plan %+v != fresh Autotune entry %+v", name, got, want)
		}
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(cachedResp)
	// Cached and fresh responses differ only in the Cached flag.
	first.Cached = true
	c, _ := json.Marshal(first)
	if string(b) != string(c) {
		t.Fatalf("cached response %s != fresh response %s (modulo cached flag)", b, a)
	}
}

func TestServiceHTTP(t *testing.T) {
	var calls int64
	s := NewService(ServiceConfig{Tune: fakeTune(&calls)})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [4096]byte
		n, _ := resp.Body.Read(buf[:])
		return resp.StatusCode, buf[:n]
	}

	code, body := get("/plan?arch=knl&kind=scatter&size=65536&ambient=3")
	if code != http.StatusOK {
		t.Fatalf("plan: %d %s", code, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Algorithm != "fake" || pr.Bucket != 2 {
		t.Fatalf("plan response %+v", pr)
	}

	code, body = get("/plan?arch=knl&kind=scatter") // size missing
	if code != http.StatusBadRequest {
		t.Fatalf("missing size: %d %s", code, body)
	}
	code, body = get("/plan?arch=knl&kind=scatter&size=zap")
	if code != http.StatusBadRequest {
		t.Fatalf("bad size: %d %s", code, body)
	}
	code, body = get("/plan?arch=knl&kind=scatter&size=65536&procs=10000000")
	if code != http.StatusBadRequest {
		t.Fatalf("oversized procs: %d %s", code, body)
	}

	code, body = get("/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, s.Stats()) {
		t.Fatalf("stats endpoint %+v != %+v", st, s.Stats())
	}

	if code, _ = get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
}
