// Always-on tuning service: the autotuner wrapped behind a concurrent
// plan cache. A production MPI launcher asks "which algorithm for this
// (arch, ranks, kind, size) under the machine's current co-tenant
// pressure?" and the service answers from a tuned table it built once
// per cache key — re-tuning in batches when the observed ambient
// pressure drifts away from what a table was tuned for.
package tuner

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
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
	Hits    int64 `json:"hits"`    // answered from a tuned table
	Misses  int64 `json:"misses"`  // triggered a fresh Autotune
	Shared  int64 `json:"shared"`  // waited on another request's in-flight tune
	Retunes int64 `json:"retunes"` // tables rebuilt by drift-triggered Retune
}

// ServiceConfig tunes the Service itself.
type ServiceConfig struct {
	// ProbeSizes and Jobs are forwarded into each Autotune Config.
	ProbeSizes []int64
	Jobs       int
	// DriftThreshold marks a table dirty once |EWMA(ambient) - tuned
	// ambient| reaches it (default 2 holders).
	DriftThreshold float64
	// Alpha is the ambient EWMA smoothing factor in (0, 1]; default 0.3.
	Alpha float64
	// Tune overrides the tuning function (tests instrument it to count
	// and serialize real tuning work). Default Autotune.
	Tune func(a *arch.Profile, cfg Config) *Table
}

type cacheEntry struct {
	tab *Table
	// tunedAmbient is the raw ambient value the table was built at
	// (starts as the bucket representative, tracks retunes after).
	tunedAmbient int
	ewma         float64
	seen         bool
}

type flight struct {
	done chan struct{}
	tab  *Table
	err  error
}

// Service is a concurrent, always-on tuning oracle: a tuned-plan cache
// keyed by (arch, ranks, kind, ambient bucket) with single-flight
// de-duplication of concurrent misses and batched re-tuning on ambient
// drift. Safe for concurrent use.
type Service struct {
	cfg ServiceConfig

	mu       sync.Mutex
	cache    map[PlanKey]*cacheEntry
	inflight map[PlanKey]*flight
	stats    Stats
}

// NewService builds a Service. cfg may be zero-valued.
func NewService(cfg ServiceConfig) *Service {
	if cfg.DriftThreshold <= 0 {
		cfg.DriftThreshold = 2
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.3
	}
	if cfg.Tune == nil {
		cfg.Tune = Autotune
	}
	return &Service{
		cfg:      cfg,
		cache:    map[PlanKey]*cacheEntry{},
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
	if e, ok := s.cache[key]; ok {
		s.stats.Hits++
		s.observeLocked(e, req.Ambient)
		tab := e.tab
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
		s.mu.Lock()
		if e, ok := s.cache[key]; ok {
			s.observeLocked(e, req.Ambient)
		}
		s.mu.Unlock()
		return s.respond(f.tab, req, key, true), nil
	}
	s.stats.Misses++
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()

	f.tab, f.err = s.tune(key, key.Bucket)
	s.mu.Lock()
	delete(s.inflight, key)
	if f.err == nil {
		e := &cacheEntry{tab: f.tab, tunedAmbient: key.Bucket}
		s.observeLocked(e, req.Ambient)
		s.cache[key] = e
	}
	s.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return PlanResponse{}, f.err
	}
	return s.respond(f.tab, req, key, false), nil
}

func (s *Service) tune(key PlanKey, ambient int) (tab *Table, err error) {
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
		Ambient:    ambient,
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

// observeLocked folds one raw ambient reading into the entry's EWMA.
func (s *Service) observeLocked(e *cacheEntry, ambient int) {
	if !e.seen {
		e.ewma, e.seen = float64(ambient), true
		return
	}
	e.ewma = s.cfg.Alpha*float64(ambient) + (1-s.cfg.Alpha)*e.ewma
}

// dirtyLocked reports whether the entry's observed pressure has drifted
// past the retune threshold.
func dirtyLocked(s *Service, e *cacheEntry) bool {
	d := e.ewma - float64(e.tunedAmbient)
	if d < 0 {
		d = -d
	}
	return d >= s.cfg.DriftThreshold
}

// Dirty returns the keys whose observed ambient EWMA has drifted past
// the threshold since their table was tuned, in deterministic order.
func (s *Service) Dirty() []PlanKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []PlanKey
	for k, e := range s.cache {
		if dirtyLocked(s, e) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Arch != b.Arch {
			return a.Arch < b.Arch
		}
		if a.Procs != b.Procs {
			return a.Procs < b.Procs
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Bucket < b.Bucket
	})
	return keys
}

// Retune rebuilds every dirty table in one batch at the rounded EWMA
// ambient and swaps the fresh tables in. It returns the number of
// tables rebuilt. Serving continues from the old tables while the
// batch runs; camc-tune -serve calls this on a background ticker.
func (s *Service) Retune() int {
	keys := s.Dirty()
	type rebuilt struct {
		key     PlanKey
		ambient int
		tab     *Table
	}
	var batch []rebuilt
	for _, key := range keys {
		s.mu.Lock()
		e, ok := s.cache[key]
		if !ok || !dirtyLocked(s, e) {
			s.mu.Unlock()
			continue
		}
		target := int(e.ewma + 0.5)
		s.mu.Unlock()
		tab, err := s.tune(key, target)
		if err != nil {
			continue
		}
		batch = append(batch, rebuilt{key, target, tab})
	}
	s.mu.Lock()
	for _, r := range batch {
		if e, ok := s.cache[r.key]; ok {
			e.tab = r.tab
			e.tunedAmbient = r.ambient
		}
		s.stats.Retunes++
	}
	s.mu.Unlock()
	return len(batch)
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
