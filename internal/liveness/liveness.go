// Package liveness turns permanently dead ranks from hangs into bounded,
// coherent failures. It provides the three pieces the MPI layer composes
// into ULFM-style recovery:
//
//   - a Board: per-communicator heartbeat/death state published in the
//     simulated shm segment. A dying rank marks itself dead (the kernel
//     knows when a process exits); watchdogs on blocking primitives poll
//     the board and also mark a peer dead themselves when a wait exceeds
//     its deadline (a wedged-but-not-exited peer).
//   - a deadline discipline: every blocking primitive in the transport
//     polls in quanta of Config.Poll and gives up after Config.Deadline,
//     returning a typed *PeerDeadError instead of blocking forever.
//   - an agreement round (Board.Agree): survivors of a protected
//     collective exchange their locally observed failure sets through the
//     board and adopt a single published union, so every survivor returns
//     the same error with the same failed-rank set — no split-brain where
//     a leaf thinks the bcast succeeded while the root saw a death.
//
// Agreement runs before communicator shrink on purpose: shrink rebuilds
// the rank table from the failed set, so survivors must agree on that set
// first or they would build incompatible communicators (see DESIGN.md).
//
// Everything operates in virtual time on the deterministic simulator, so
// detection latencies are reproducible and a liveness-enabled run that
// experiences no failure is schedule-identical to a disabled one: timed
// waits that complete in time cancel their deadline events unprocessed.
package liveness

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"camc/internal/sim"
)

// ErrPeerDead is the sentinel matched by errors.Is for any failure caused
// by dead peers. The concrete error is always a *PeerDeadError carrying
// the failed-rank set.
var ErrPeerDead = errors.New("peer dead")

// PeerDeadError reports that one or more ranks died. Ranks is sorted.
// After agreement, every survivor holds an identical Ranks slice.
type PeerDeadError struct {
	Ranks []int
}

func (e *PeerDeadError) Error() string {
	return fmt.Sprintf("liveness: dead ranks %v", e.Ranks)
}

// Is makes errors.Is(err, ErrPeerDead) succeed for any *PeerDeadError.
func (e *PeerDeadError) Is(target error) bool { return target == ErrPeerDead }

// NewPeerDeadError returns a *PeerDeadError over a sorted copy of ranks.
func NewPeerDeadError(ranks []int) *PeerDeadError {
	rs := append([]int(nil), ranks...)
	sort.Ints(rs)
	return &PeerDeadError{Ranks: rs}
}

// Killed is the panic value a rank raises to enact its own permanent
// death at a seeded kill point. The MPI layer recovers it at the process
// boundary so the simulated process exits cleanly (the simulator treats
// any other panic as a bug and re-panics out of Run).
type Killed struct {
	Rank int
}

// Config tunes the failure detector. The zero value means "disabled";
// use Defaults (or fill the fields) to enable liveness tracking.
type Config struct {
	// Deadline bounds any single blocking wait. A peer that produces no
	// progress for this long is declared dead by the waiting rank. Timed
	// waits that complete in time are free, so Deadline can be generous.
	Deadline sim.Time
	// Poll is the watchdog quantum: how often a blocked rank re-checks
	// the board (and re-publishes its own heartbeat) while waiting. Board
	// deaths are therefore detected within one Poll, long before Deadline.
	Poll sim.Time
}

// Defaults returns the standard detector tuning: a 10 ms deadline with a
// 10 us poll quantum.
func Defaults() Config {
	return Config{Deadline: 10_000, Poll: 10}
}

// CheckDeadline reports an error unless d can serve as a detector
// deadline under the default poll quantum: 0 selects the default, and
// any other value must be finite and longer than one poll. A deadline
// at or below the poll declares ranks dead between two of their own
// beats.
func CheckDeadline(d sim.Time) error {
	if d == 0 {
		return nil
	}
	if poll := Defaults().Poll; math.IsNaN(d) || math.IsInf(d, 0) || d <= poll {
		return fmt.Errorf("liveness: deadline %v is not a finite time above the %v us poll quantum", d, poll)
	}
	return nil
}

// Check reports an error unless c, with unset fields defaulted, can
// drive a detector: a finite poll quantum, and a finite deadline
// longer than that poll. A deadline at or below the poll declares ranks
// dead between two of their own beats, so a recovery run would fail
// inside the harness instead of at its boundary.
func (c Config) Check() error {
	c = c.withDefaults()
	if math.IsNaN(c.Poll) || math.IsInf(c.Poll, 0) {
		return fmt.Errorf("liveness: poll %v is not a finite time", c.Poll)
	}
	if math.IsNaN(c.Deadline) || math.IsInf(c.Deadline, 0) || c.Deadline <= c.Poll {
		return fmt.Errorf("liveness: deadline %v is not a finite time above the %v us poll quantum", c.Deadline, c.Poll)
	}
	return nil
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	d := Defaults()
	if c.Deadline <= 0 {
		c.Deadline = d.Deadline
	}
	if c.Poll <= 0 {
		c.Poll = d.Poll
	}
	return c
}

// Round is one agreement epoch over n ranks: every rank posts its
// locally observed suspect set, and once every rank has posted or is
// dead on a deciding board, the union of all posted suspects and that
// board's deaths is published. Rounds stay in lockstep across ranks
// because every survivor executes the same sequence of protected
// collectives, each ending in exactly one agreement. Board.Agree
// decides against the communicator's own board; a cluster's world
// agreement decides against the deciding rank's node view.
type Round struct {
	posted    []bool  // rank has contributed its local suspect set
	suspects  [][]int // per-rank local suspect sets
	agreed    []int   // published union (empty = clean round)
	published bool
	agreedAt  sim.Time
}

// Rounds is a lockstep sequence of agreement rounds over n ranks.
type Rounds struct {
	n    int
	list []*Round
}

// NewRounds returns an empty round sequence over n ranks.
func NewRounds(n int) Rounds { return Rounds{n: n} }

// At returns round i, creating it (and any earlier round) on first use.
func (rs *Rounds) At(i int) *Round {
	for len(rs.list) <= i {
		rs.list = append(rs.list, &Round{
			posted:   make([]bool, rs.n),
			suspects: make([][]int, rs.n),
		})
	}
	return rs.list[i]
}

// Post contributes rank's local suspect set; a rank's first post wins.
func (r *Round) Post(rank int, local []int) {
	if !r.posted[rank] {
		r.posted[rank] = true
		r.suspects[rank] = append([]int(nil), local...)
	}
}

// Posted reports whether rank has posted.
func (r *Round) Posted(rank int) bool { return r.posted[rank] }

// Decide reports whether the round is published, publishing it first
// if every rank has posted or is dead on b: the agreed set is the
// union of every posted suspect set and b's deaths, stamped with the
// current instant.
func (r *Round) Decide(b *Board) bool {
	if r.published {
		return true
	}
	for rank := range r.posted {
		if !r.posted[rank] && !b.dead[rank] {
			return false
		}
	}
	in := make([]bool, len(r.posted))
	for rank := range in {
		if b.dead[rank] {
			in[rank] = true
		}
		for _, s := range r.suspects[rank] {
			in[s] = true
		}
	}
	r.agreed = []int{}
	for rank, d := range in {
		if d {
			r.agreed = append(r.agreed, rank)
		}
	}
	r.published = true
	r.agreedAt = b.sim.Now()
	return true
}

// Agreed returns a copy of the published failed-rank set, sorted.
func (r *Round) Agreed() []int { return append([]int(nil), r.agreed...) }

// AgreedAt returns the round's publish instant.
func (r *Round) AgreedAt() sim.Time { return r.agreedAt }

// Board is the shared liveness state of one communicator: heartbeats,
// death flags, and agreement slots, modelled as residing in the shm
// segment (every rank reads and writes it directly, like the PiP-style
// shared tables in the reproduced design). All access happens from the
// simulator's processes, which run one at a time, so no host-level
// locking is needed and behaviour is deterministic.
type Board struct {
	sim *sim.Simulation
	cfg Config
	n   int

	beats   []sim.Time
	dead    []bool
	deadAt  []sim.Time
	nDead   int
	firstAt sim.Time // earliest death instant, for detection latency

	rounds Rounds
}

// NewBoard creates the liveness board for an n-rank communicator.
func NewBoard(s *sim.Simulation, n int, cfg Config) *Board {
	return &Board{
		sim:    s,
		cfg:    cfg.withDefaults(),
		n:      n,
		beats:  make([]sim.Time, n),
		dead:   make([]bool, n),
		deadAt: make([]sim.Time, n),
		rounds: NewRounds(n),
	}
}

// Config returns the detector tuning (with defaults applied).
func (b *Board) Config() Config { return b.cfg }

// Beat publishes rank's heartbeat at the current instant.
func (b *Board) Beat(rank int) { b.beats[rank] = b.sim.Now() }

// Lease publishes rank's heartbeat forward to a future instant: the
// rank is about to be provably busy until then (e.g. a sender pushing
// one contention-inflated chunk through a fabric link, whose duration
// is known the moment it starts) and cannot re-beat from inside the
// busy period. A leased rank is not Stale until the lease plus the
// staleness age has passed. Leases never move a heartbeat backwards,
// and Merge propagates them like any fresher beat.
func (b *Board) Lease(rank int, until sim.Time) {
	if until > b.beats[rank] {
		b.beats[rank] = until
	}
}

// Stale reports whether rank's heartbeat is at least age old. It is the
// watchdog's second opinion before declaring a deadline-expired peer
// dead: a live-but-blocked rank re-beats every Poll quantum, so only a
// rank that has genuinely stopped making progress ever looks stale.
// Without this gate two waits expiring at the same instant — one on a
// dead rank, one on a live rank that is itself blocked on the dead one —
// would each declare their peer dead, and the false positive would
// poison the agreed failed set.
func (b *Board) Stale(rank int, age sim.Time) bool {
	return b.sim.Now()-b.beats[rank] >= age
}

// MarkDead publishes rank's death. The first marking wins; repeats are
// no-ops, so a self-announced death and a watchdog expiry never disagree
// about the death instant.
func (b *Board) MarkDead(rank int) {
	if b.dead[rank] {
		return
	}
	b.dead[rank] = true
	b.deadAt[rank] = b.sim.Now()
	if b.nDead == 0 || b.sim.Now() < b.firstAt {
		b.firstAt = b.sim.Now()
	}
	b.nDead++
}

// Dead reports whether rank has been marked dead.
func (b *Board) Dead(rank int) bool { return b.dead[rank] }

// AnyDead reports whether any rank has been marked dead.
func (b *Board) AnyDead() bool { return b.nDead > 0 }

// DeadSet returns the sorted set of ranks marked dead so far.
func (b *Board) DeadSet() []int {
	if b.nDead == 0 {
		return nil
	}
	set := make([]int, 0, b.nDead)
	for r, d := range b.dead {
		if d {
			set = append(set, r)
		}
	}
	return set
}

// FirstDeathAt returns the earliest death instant and whether any death
// has been recorded. Detection latency = agreement instant − FirstDeathAt.
func (b *Board) FirstDeathAt() (sim.Time, bool) {
	return b.firstAt, b.nDead > 0
}

// Merge folds another board's view of the same rank space into this
// one: fresher heartbeats win, and deaths are adopted together with the
// other view's death instant (first marking still wins, so merged and
// locally observed deaths never disagree about when a rank died). This
// is the fabric-crossing gossip primitive — a liveness probe returns
// the remote node's view and the prober merges it into its own.
func (b *Board) Merge(o *Board) {
	if o == nil || o == b {
		return
	}
	if o.n != b.n {
		panic("liveness: Merge across boards of different rank spaces")
	}
	for r := 0; r < b.n; r++ {
		if o.beats[r] > b.beats[r] {
			b.beats[r] = o.beats[r]
		}
		if o.dead[r] && !b.dead[r] {
			b.dead[r] = true
			b.deadAt[r] = o.deadAt[r]
			if b.nDead == 0 || o.deadAt[r] < b.firstAt {
				b.firstAt = o.deadAt[r]
			}
			b.nDead++
		}
	}
}

// AgreedAt returns the publish instant of agreement round i. It is only
// meaningful after Agree has returned for that round.
func (b *Board) AgreedAt(i int) sim.Time { return b.rounds.At(i).AgreedAt() }

// Agree runs one coherent-error agreement round: the calling rank posts
// its locally observed suspect set, then waits until every rank has
// either posted or died. The first rank to see that condition computes
// the union of all posted suspects plus all board deaths and publishes
// it; everyone else adopts the published set. The returned slice is the
// agreed failed-rank set, sorted, empty for a clean round; all survivors
// of the same round receive equal sets.
//
// A rank that dies mid-agreement is handled by the same discipline as
// any other wait: after Deadline with no progress, survivors mark the
// silent ranks dead, which re-satisfies the posted-or-dead condition.
func (b *Board) Agree(p *sim.Proc, self, round int, local []int) []int {
	r := b.rounds.At(round)
	r.Post(self, local)
	start := b.sim.Now()
	for {
		b.Beat(self)
		if r.Decide(b) {
			return r.Agreed()
		}
		if b.sim.Now()-start >= b.cfg.Deadline {
			// Ranks whose heartbeat has also been silent for a full
			// deadline died before posting (e.g. killed between the
			// collective and the agreement). Fresh-but-unposted ranks are
			// alive and still on their way here — keep polling for them.
			for rank := 0; rank < b.n; rank++ {
				if !r.Posted(rank) && !b.dead[rank] && b.Stale(rank, b.cfg.Deadline) {
					b.MarkDead(rank)
				}
			}
			if r.Decide(b) {
				return r.Agreed()
			}
		}
		p.Sleep(b.cfg.Poll)
	}
}
