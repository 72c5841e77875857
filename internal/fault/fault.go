// Package fault is the deterministic fault-injection layer for the
// simulated MPI stack: a seeded Plan decides, in virtual time, where the
// kernel-assisted data path degrades — short process_vm_readv/writev
// completions, transient EAGAIN-style syscall failures, mm-lock stall
// spikes, stalled shared-memory FIFO cells and per-rank straggler skew —
// so that the collectives' graceful-degradation machinery (bounded
// retries with exponential backoff, per-peer fallback from CMA to the
// two-copy path) can be exercised and measured reproducibly.
//
// Every decision is a pure function of (seed, injection site, the
// process/rank identities involved, a per-site sequence number): no
// wall-clock, no shared global RNG stream. Two runs with the same seed
// make byte-identical injections, a traced run injects exactly what an
// untraced run injects (recording consumes no decisions), and parallel
// sweep cells with distinct plans never interact. Faults perturb
// *timing* only through explicit virtual-time sleeps charged to the
// faulted process; payloads are never corrupted — a faulty run must
// deliver exactly the bytes a fault-free run delivers, just later
// (asserted by the metamorphic tests in internal/core).
//
// The Plan also accumulates Stats (injections, retries, backoff time,
// per-peer fallbacks, bytes moved over the degraded path), which the x8
// robustness experiment reports next to the latency cost of surviving
// the injected faults.
package fault

import "fmt"

// Defaults applied by New for zero Config fields that need a value.
const (
	DefaultLockSpikeFactor = 8.0  // lock-cost multiplier during a spike
	DefaultShmStallTime    = 5.0  // us a stalled FIFO cell stays invisible
	DefaultStragglerSkew   = 50.0 // max extra us a straggler sleeps per op
	DefaultMaxRetries      = 8    // attempts before a transfer is abandoned
	DefaultBackoffBase     = 0.5  // first retry backoff, us
	DefaultBackoffCap      = 64.0 // ceiling for one backoff sleep, us
	DefaultKillMaxOp       = 12   // kill points are drawn from [1, KillMaxOp]
)

// Config describes what a Plan injects. Probabilities are in [0, 1];
// zero disables that fault class. The zero Config injects nothing.
type Config struct {
	Seed int64 // decision seed; plans with equal configs inject identically

	// PartialProb is the per-chunk probability that an in-progress CMA
	// transfer completes short (returns after the current page chunk,
	// like a short read under memory pressure). The caller resumes from
	// the completed offset, so payloads stay exact.
	PartialProb float64

	// TransientProb is the per-attempt probability that a CMA syscall
	// fails at entry with an EAGAIN-style transient error, consuming the
	// syscall-entry cost but transferring nothing.
	TransientProb float64

	// LockSpikeProb is the per-chunk probability that the remote mm
	// lock stalls (a page-table walk or direct-reclaim spike on the
	// holder), inflating that chunk's lock cost by LockSpikeFactor.
	LockSpikeProb   float64
	LockSpikeFactor float64

	// ShmStallProb is the per-cell probability that a staged
	// shared-memory FIFO cell becomes visible to the receiver
	// ShmStallTime microseconds late (a delayed cache-line flush).
	ShmStallProb float64
	ShmStallTime float64

	// StragglerProb is the probability that a given rank is a straggler
	// for the whole run; each straggler sleeps a deterministic extra
	// delay in (0, StragglerSkew] before every timed operation.
	StragglerProb float64
	StragglerSkew float64

	// KillProb is the per-rank probability of *permanent death*: a
	// killed rank stops participating forever at a seeded operation
	// index mid-collective (contrast the transient classes above, which
	// only delay). Rank 0 is never selected, so at least one survivor
	// always remains to drive recovery. KillMaxOp bounds the operation
	// index at which death strikes; the exact point per rank is a
	// stable function of the seed.
	KillProb  float64
	KillMaxOp int

	// MaxRetries bounds zero-progress retry attempts per transfer
	// before the kernel assist is declared failed; BackoffBase/Cap
	// shape the exponential virtual-time backoff between attempts.
	MaxRetries  int
	BackoffBase float64
	BackoffCap  float64
}

// Active reports whether any fault class has a non-zero probability.
func (c Config) Active() bool {
	return c.PartialProb > 0 || c.TransientProb > 0 || c.LockSpikeProb > 0 ||
		c.ShmStallProb > 0 || c.StragglerProb > 0 || c.KillProb > 0
}

// String renders the config in the spec syntax Parse accepts.
func (c Config) String() string {
	s := fmt.Sprintf("seed=%d", c.Seed)
	add := func(k string, v float64) {
		if v > 0 {
			s += fmt.Sprintf(",%s=%g", k, v)
		}
	}
	add("partial", c.PartialProb)
	add("eagain", c.TransientProb)
	add("lockspike", c.LockSpikeProb)
	add("lockfactor", c.LockSpikeFactor)
	add("shmstall", c.ShmStallProb)
	add("stalltime", c.ShmStallTime)
	add("straggler", c.StragglerProb)
	add("skew", c.StragglerSkew)
	add("kill", c.KillProb)
	if c.KillMaxOp > 0 && c.KillProb > 0 {
		s += fmt.Sprintf(",killop=%d", c.KillMaxOp)
	}
	if c.MaxRetries > 0 {
		s += fmt.Sprintf(",retries=%d", c.MaxRetries)
	}
	add("backoff", c.BackoffBase)
	return s
}

// Stats counts what a Plan injected and what the stack did to survive
// it. All counting happens under the simulator's single scheduling
// token, so plain fields suffice.
type Stats struct {
	Transients int64 // EAGAIN-style syscall failures injected
	Partials   int64 // short CMA completions injected
	LockSpikes int64 // mm-lock stall spikes injected
	ShmStalls  int64 // stalled shared-memory cells injected
	Stragglers int64 // straggler delays applied

	Retries     int64   // zero-progress retry attempts taken
	BackoffTime float64 // virtual us spent in retry backoff
	Fallbacks   int64   // (caller, peer) pairs degraded to the two-copy path
	BounceOps   int64   // transfers completed over the degraded path
	BounceBytes int64   // bytes moved over the degraded path
	Kills       int64   // permanent rank deaths enacted
}

// Add accumulates o's counters into s (one node plan's share of a
// cluster-wide total).
func (s *Stats) Add(o Stats) {
	s.Transients += o.Transients
	s.Partials += o.Partials
	s.LockSpikes += o.LockSpikes
	s.ShmStalls += o.ShmStalls
	s.Stragglers += o.Stragglers
	s.Retries += o.Retries
	s.BackoffTime += o.BackoffTime
	s.Fallbacks += o.Fallbacks
	s.BounceOps += o.BounceOps
	s.BounceBytes += o.BounceBytes
	s.Kills += o.Kills
}

// Plan is one simulation's fault schedule. Create with New; a nil *Plan
// is inert (every decision method reports "no fault"), so the stack can
// thread a possibly-nil plan without guarding each call site.
type Plan struct {
	cfg     Config
	seq     map[seqKey]uint64
	stats   Stats
	revived bool // kills disarmed (survivor re-runs must not re-kill)
}

type seqKey struct {
	site uint8
	a, b int32
}

// Decision sites. Each site draws from its own sequence so that, e.g.,
// adding a lock-spike probe never shifts which transfer gets a partial
// completion.
const (
	sitePartial uint8 = iota + 1
	siteTransient
	siteLockSpike
	siteShmStall
	siteStragglerPick
	siteStragglerDelay
	siteKillPick
	siteKillPoint
)

// New builds a Plan for cfg, applying defaults for unset secondary
// fields (spike factor, stall time, skew bound, retry/backoff shape).
func New(cfg Config) *Plan {
	if cfg.LockSpikeFactor <= 0 {
		cfg.LockSpikeFactor = DefaultLockSpikeFactor
	}
	if cfg.ShmStallTime <= 0 {
		cfg.ShmStallTime = DefaultShmStallTime
	}
	if cfg.StragglerSkew <= 0 {
		cfg.StragglerSkew = DefaultStragglerSkew
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = DefaultBackoffCap
	}
	if cfg.KillMaxOp <= 0 {
		cfg.KillMaxOp = DefaultKillMaxOp
	}
	return &Plan{cfg: cfg, seq: make(map[seqKey]uint64)}
}

// Stats returns the counters accumulated so far.
func (p *Plan) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return p.stats
}

// splitmix64 is the standard 64-bit finalizer-style mixer; one round
// per word keeps decisions cheap and well distributed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll returns a uniform value in [0, 1) for the next decision at
// (site, a, b). The sequence number makes successive decisions at one
// site independent; the identities keep unrelated sites independent.
func (p *Plan) roll(site uint8, a, b int) float64 {
	k := seqKey{site: site, a: int32(a), b: int32(b)}
	n := p.seq[k]
	p.seq[k] = n + 1
	return p.hash(site, a, b, n)
}

// hash is the stateless variant of roll for decisions that must not
// depend on how often they are asked (e.g. "is rank r a straggler").
func (p *Plan) hash(site uint8, a, b int, n uint64) float64 {
	h := splitmix64(uint64(p.cfg.Seed) ^ uint64(site)<<56)
	h = splitmix64(h ^ uint64(uint32(a)) ^ uint64(uint32(b))<<32)
	h = splitmix64(h ^ n)
	return float64(h>>11) / (1 << 53)
}

// Transient reports whether the next CMA attempt from caller against
// remote fails at syscall entry (EAGAIN-style).
func (p *Plan) Transient(callerPID, remotePID int) bool {
	if p == nil || p.cfg.TransientProb <= 0 {
		return false
	}
	if p.roll(siteTransient, callerPID, remotePID) >= p.cfg.TransientProb {
		return false
	}
	p.stats.Transients++
	return true
}

// PartialCut reports whether an in-progress CMA transfer completes
// short after the current page chunk.
func (p *Plan) PartialCut(callerPID, remotePID int) bool {
	if p == nil || p.cfg.PartialProb <= 0 {
		return false
	}
	if p.roll(sitePartial, callerPID, remotePID) >= p.cfg.PartialProb {
		return false
	}
	p.stats.Partials++
	return true
}

// LockSpike returns the lock-cost multiplier for the next mm-lock
// chunk on remote (1 when no spike fires).
func (p *Plan) LockSpike(callerPID, remotePID int) float64 {
	if p == nil || p.cfg.LockSpikeProb <= 0 {
		return 1
	}
	if p.roll(siteLockSpike, callerPID, remotePID) >= p.cfg.LockSpikeProb {
		return 1
	}
	p.stats.LockSpikes++
	return p.cfg.LockSpikeFactor
}

// ShmStall returns the extra visibility delay (us) for the next
// shared-memory cell staged from src to dst (0 when no stall fires).
func (p *Plan) ShmStall(src, dst int) float64 {
	if p == nil || p.cfg.ShmStallProb <= 0 {
		return 0
	}
	if p.roll(siteShmStall, src, dst) >= p.cfg.ShmStallProb {
		return 0
	}
	p.stats.ShmStalls++
	return p.cfg.ShmStallTime
}

// IsStraggler reports whether rank is a straggler under this plan; the
// choice is stable for the whole run.
func (p *Plan) IsStraggler(rank int) bool {
	if p == nil || p.cfg.StragglerProb <= 0 {
		return false
	}
	return p.hash(siteStragglerPick, rank, 0, 0) < p.cfg.StragglerProb
}

// StragglerDelay returns the extra virtual-time delay (us) rank sleeps
// before operation iter (0 for non-stragglers).
func (p *Plan) StragglerDelay(rank, iter int) float64 {
	if !p.IsStraggler(rank) {
		return 0
	}
	p.stats.Stragglers++
	return p.cfg.StragglerSkew * (0.25 + 0.75*p.hash(siteStragglerDelay, rank, iter, 0))
}

// MaxRetries returns the zero-progress attempt bound per transfer.
func (p *Plan) MaxRetries() int {
	if p == nil {
		return DefaultMaxRetries
	}
	return p.cfg.MaxRetries
}

// Backoff returns the virtual-time sleep before retry `attempt`
// (0-based): base·2^attempt, capped. The time is also accumulated in
// Stats; the caller must actually sleep it.
func (p *Plan) Backoff(attempt int) float64 {
	if p == nil {
		return 0
	}
	d := p.cfg.BackoffBase
	for i := 0; i < attempt && d < p.cfg.BackoffCap; i++ {
		d *= 2
	}
	if d > p.cfg.BackoffCap {
		d = p.cfg.BackoffCap
	}
	p.stats.Retries++
	p.stats.BackoffTime += d
	return d
}

// KillPoint returns the operation index (1-based) at which rank dies
// permanently, or -1 if this plan never kills rank. The choice is a
// stateless function of the seed so every consultation agrees, however
// often the stack asks. Rank 0 is never killed: recovery needs at least
// one survivor, and the chaos harness re-roots dead roots onto the
// lowest survivor.
func (p *Plan) KillPoint(rank int) int {
	if p == nil || p.revived || p.cfg.KillProb <= 0 || rank == 0 {
		return -1
	}
	if p.hash(siteKillPick, rank, 0, 0) >= p.cfg.KillProb {
		return -1
	}
	return 1 + int(p.hash(siteKillPoint, rank, 0, 0)*float64(p.cfg.KillMaxOp))
}

// CountKill records one permanent rank death enacted.
func (p *Plan) CountKill() {
	if p != nil {
		p.stats.Kills++
	}
}

// Reset rewinds the plan to its just-built state: counters zeroed and
// every per-site decision sequence restarted. Back-to-back experiment
// cells that share one plan (a `-run all` invocation, or an explicit
// re-measure) therefore see identical injections instead of a schedule
// that drifts with whatever ran before — and no stats leak across cells.
func (p *Plan) Reset() {
	if p == nil {
		return
	}
	p.stats = Stats{}
	p.seq = make(map[seqKey]uint64)
	p.revived = false
}

// Revive disarms the kill class while keeping every other fault class
// and all accumulated stats: the survivors' post-shrink re-run faces the
// same transient-fault weather but no fresh deaths. Reset re-arms kills.
func (p *Plan) Revive() {
	if p != nil {
		p.revived = true
	}
}

// CountFallback records one (caller, peer) pair abandoning the kernel
// assist for the degraded two-copy path.
func (p *Plan) CountFallback() {
	if p != nil {
		p.stats.Fallbacks++
	}
}

// CountBounce records size bytes completed over the degraded path.
func (p *Plan) CountBounce(size int64) {
	if p != nil {
		p.stats.BounceOps++
		p.stats.BounceBytes += size
	}
}
