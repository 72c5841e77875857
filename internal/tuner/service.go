// Always-on tuning service: the autotuner wrapped behind a concurrent
// plan cache. A production MPI launcher asks "which algorithm for this
// (arch, ranks, kind, size) under the machine's current co-tenant
// pressure?" and the service answers from a tuned table it built once
// per cache key.
package tuner

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"camc/internal/arch"
	"camc/internal/core"
)

// AmbientBucket maps a raw ambient lock-holder count to its bucket's
// representative value. Tables are tuned per bucket, not per raw count:
// γ(c) is smooth enough that tuning at the representative covers the
// band, and the cache stays small under jittery ambient readings.
//
//	0        -> 0   (dedicated machine)
//	1..4     -> 2   (light co-tenancy)
//	5..16    -> 8   (busy neighbours)
//	17..     -> 32  (saturated, CMA lock convoy territory)
func AmbientBucket(ambient int) int {
	switch {
	case ambient <= 0:
		return 0
	case ambient <= 4:
		return 2
	case ambient <= 16:
		return 8
	default:
		return 32
	}
}

// PlanKey identifies one tuned table in the service cache.
type PlanKey struct {
	Arch   string    `json:"arch"`
	Procs  int       `json:"procs"`
	Kind   core.Kind `json:"kind"`
	Bucket int       `json:"bucket"` // AmbientBucket representative
}

// PlanRequest asks for the tuned algorithm of one collective call.
type PlanRequest struct {
	Arch    string    `json:"arch"`
	Procs   int       `json:"procs"` // 0 = architecture default
	Kind    core.Kind `json:"kind"`
	Size    int64     `json:"size"`    // message size in bytes
	Ambient int       `json:"ambient"` // current co-tenant lock holders
}

// PlanResponse is the tuned answer.
type PlanResponse struct {
	Algorithm string  `json:"algorithm"`
	MaxSize   int64   `json:"max_size"` // bucket upper bound the plan covers
	Latency   float64 `json:"latency_us"`
	Probe     int64   `json:"probe"`  // size Latency was measured at
	Bucket    int     `json:"bucket"` // ambient bucket the table was tuned for
	Cached    bool    `json:"cached"` // true when served without tuning
}

// Stats counts cache traffic since the service started.
type Stats struct {
	Hits   int64 `json:"hits"`   // answered from a tuned table
	Misses int64 `json:"misses"` // triggered a fresh Autotune
	Shared int64 `json:"shared"` // waited on another request's in-flight tune
}

// ServiceConfig tunes the Service itself.
type ServiceConfig struct {
	// ProbeSizes and Jobs are forwarded into each Autotune Config.
	ProbeSizes []int64
	Jobs       int
	// Tune overrides the tuning function (tests instrument it to count
	// and serialize real tuning work). Default Autotune.
	Tune func(a *arch.Profile, cfg Config) *Table
}

type flight struct {
	done chan struct{}
	tab  *Table
	err  error
}

// Service is a concurrent, always-on tuning oracle: a tuned-plan cache
// keyed by (arch, ranks, kind, ambient bucket) with single-flight
// de-duplication of concurrent misses. Safe for concurrent use.
type Service struct {
	cfg ServiceConfig

	mu       sync.Mutex
	cache    map[PlanKey]*Table
	inflight map[PlanKey]*flight
	stats    Stats
}

// NewService builds a Service. cfg may be zero-valued.
func NewService(cfg ServiceConfig) *Service {
	if cfg.Tune == nil {
		cfg.Tune = Autotune
	}
	return &Service{
		cfg:      cfg,
		cache:    map[PlanKey]*Table{},
		inflight: map[PlanKey]*flight{},
	}
}

func (s *Service) validate(req *PlanRequest) (*arch.Profile, error) {
	prof, err := arch.ByName(req.Arch)
	if err != nil {
		return nil, err
	}
	ok := false
	for _, k := range Kinds() {
		if k == req.Kind {
			ok = true
		}
	}
	if !ok {
		return nil, fmt.Errorf("tuner: unknown kind %q", req.Kind)
	}
	if req.Size < 0 {
		return nil, fmt.Errorf("tuner: negative size %d", req.Size)
	}
	if req.Ambient < 0 {
		return nil, fmt.Errorf("tuner: negative ambient %d", req.Ambient)
	}
	// One request must not be able to start an Autotune larger than the
	// machine: the hardware-thread count bounds an intra-node job.
	if req.Procs < 0 || req.Procs > prof.HWThreads() {
		return nil, fmt.Errorf("tuner: procs %d outside 1..%d, the %s hardware threads", req.Procs, prof.HWThreads(), prof.Name)
	}
	if req.Procs == 0 {
		req.Procs = prof.DefaultProcs
	}
	return prof, nil
}

// Plan answers one request, tuning at most once per cache key no matter
// how many requests race on it.
func (s *Service) Plan(req PlanRequest) (PlanResponse, error) {
	prof, err := s.validate(&req)
	if err != nil {
		return PlanResponse{}, err
	}
	key := PlanKey{Arch: prof.Name, Procs: req.Procs, Kind: req.Kind, Bucket: AmbientBucket(req.Ambient)}

	s.mu.Lock()
	if tab, ok := s.cache[key]; ok {
		s.stats.Hits++
		s.mu.Unlock()
		return s.respond(tab, req, key, true), nil
	}
	if f, ok := s.inflight[key]; ok {
		s.stats.Shared++
		s.mu.Unlock()
		<-f.done
		if f.err != nil {
			return PlanResponse{}, f.err
		}
		return s.respond(f.tab, req, key, true), nil
	}
	s.stats.Misses++
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()

	f.tab, f.err = s.tune(key)
	s.mu.Lock()
	delete(s.inflight, key)
	if f.err == nil {
		s.cache[key] = f.tab
	}
	s.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return PlanResponse{}, f.err
	}
	return s.respond(f.tab, req, key, false), nil
}

// tune builds key's table at its ambient bucket's representative.
func (s *Service) tune(key PlanKey) (tab *Table, err error) {
	prof, err := arch.ByName(key.Arch)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			tab, err = nil, fmt.Errorf("tuner: tuning %v failed: %v", key, r)
		}
	}()
	return s.cfg.Tune(prof, Config{
		Procs:      key.Procs,
		ProbeSizes: s.cfg.ProbeSizes,
		Jobs:       s.cfg.Jobs,
		Ambient:    key.Bucket,
		Kinds:      []core.Kind{key.Kind},
	}), nil
}

func (s *Service) respond(tab *Table, req PlanRequest, key PlanKey, cached bool) PlanResponse {
	e := tab.Lookup(req.Kind, req.Size)
	return PlanResponse{
		Algorithm: e.Name,
		MaxSize:   e.MaxSize,
		Latency:   e.Latency,
		Probe:     e.Probe,
		Bucket:    key.Bucket,
		Cached:    cached,
	}
}

// Stats returns a snapshot of the cache counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Handler exposes the service over HTTP/JSON:
//
//	GET /plan?arch=knl&kind=scatter&size=65536[&procs=64][&ambient=8]
//	GET /stats
//	GET /healthz
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/plan", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		req := PlanRequest{Arch: q.Get("arch"), Kind: core.Kind(q.Get("kind"))}
		var err error
		if req.Size, err = parseInt64(q.Get("size")); err != nil {
			httpErr(w, http.StatusBadRequest, fmt.Errorf("size: %v", err))
			return
		}
		if req.Procs, err = parseIntDefault(q.Get("procs")); err != nil {
			httpErr(w, http.StatusBadRequest, fmt.Errorf("procs: %v", err))
			return
		}
		if req.Ambient, err = parseIntDefault(q.Get("ambient")); err != nil {
			httpErr(w, http.StatusBadRequest, fmt.Errorf("ambient: %v", err))
			return
		}
		resp, err := s.Plan(req)
		if err != nil {
			httpErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func parseInt64(v string) (int64, error) {
	if v == "" {
		return 0, fmt.Errorf("missing")
	}
	return strconv.ParseInt(v, 10, 64)
}

func parseIntDefault(v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	return strconv.Atoi(v)
}

func httpErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
