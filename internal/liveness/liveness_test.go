package liveness

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"camc/internal/sim"
)

func TestPeerDeadErrorIs(t *testing.T) {
	err := NewPeerDeadError([]int{3, 1})
	if !errors.Is(err, ErrPeerDead) {
		t.Fatal("errors.Is(PeerDeadError, ErrPeerDead) = false")
	}
	if got := err.Ranks; !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("Ranks = %v, want sorted [1 3]", got)
	}
	if errors.Is(errors.New("other"), ErrPeerDead) {
		t.Fatal("unrelated error matched ErrPeerDead")
	}
}

func TestBoardMarkDead(t *testing.T) {
	s := sim.New()
	b := NewBoard(s, 4, Config{})
	if b.AnyDead() {
		t.Fatal("fresh board has deaths")
	}
	s.Spawn("a", func(p *sim.Proc) {
		p.Sleep(7)
		b.MarkDead(2)
		p.Sleep(5)
		b.MarkDead(2) // repeat must not move the death instant
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !b.Dead(2) || b.Dead(1) {
		t.Fatalf("dead flags wrong: %v", b.DeadSet())
	}
	at, ok := b.FirstDeathAt()
	if !ok || at != 7 {
		t.Fatalf("FirstDeathAt = (%g,%v), want (7,true)", at, ok)
	}
	if got := b.DeadSet(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("DeadSet = %v", got)
	}
}

// TestAgreeCoherent: ranks observe different local suspect sets (one saw
// the death, others saw nothing) yet all adopt the identical union.
func TestAgreeCoherent(t *testing.T) {
	s := sim.New()
	const n = 4
	b := NewBoard(s, n, Config{Deadline: 1000, Poll: 5})
	results := make([][]int, n)
	b.MarkDead(3)
	for rank := 0; rank < n-1; rank++ {
		rank := rank
		var local []int
		if rank == 0 {
			local = []int{3} // only the root noticed
		}
		s.Spawn("r", func(p *sim.Proc) {
			p.Sleep(sim.Time(rank) * 3) // stagger arrival
			results[rank] = b.Agree(p, rank, 0, local)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{3}
	for rank := 0; rank < n-1; rank++ {
		if !reflect.DeepEqual(results[rank], want) {
			t.Fatalf("rank %d agreed on %v, want %v", rank, results[rank], want)
		}
	}
}

// TestAgreeCleanRound: with no deaths and no suspects every rank gets an
// empty set, quickly.
func TestAgreeCleanRound(t *testing.T) {
	s := sim.New()
	const n = 3
	b := NewBoard(s, n, Config{Deadline: 1000, Poll: 5})
	results := make([][]int, n)
	for rank := 0; rank < n; rank++ {
		rank := rank
		s.Spawn("r", func(p *sim.Proc) {
			results[rank] = b.Agree(p, rank, 0, nil)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < n; rank++ {
		if len(results[rank]) != 0 {
			t.Fatalf("rank %d agreed on %v, want empty", rank, results[rank])
		}
	}
	if s.Now() > 100 {
		t.Fatalf("clean agreement took %g us", s.Now())
	}
}

// TestAgreeSilentRankDeclaredDead: a rank that never posts (killed
// between the collective and the agreement) is marked dead after the
// deadline and included in everyone's agreed set.
func TestAgreeSilentRankDeclaredDead(t *testing.T) {
	s := sim.New()
	const n = 3
	cfg := Config{Deadline: 200, Poll: 5}
	b := NewBoard(s, n, cfg)
	results := make([][]int, n)
	for rank := 0; rank < n-1; rank++ { // rank 2 never shows up
		rank := rank
		s.Spawn("r", func(p *sim.Proc) {
			results[rank] = b.Agree(p, rank, 0, nil)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{2}
	for rank := 0; rank < n-1; rank++ {
		if !reflect.DeepEqual(results[rank], want) {
			t.Fatalf("rank %d agreed on %v, want %v", rank, results[rank], want)
		}
	}
	if s.Now() > cfg.Deadline+2*cfg.Poll {
		t.Fatalf("silent-rank agreement took %g us, deadline %g", s.Now(), cfg.Deadline)
	}
}

// TestAgreeSecondRound: agreement slots are per-round, so a second
// protected collective after a clean first round sees fresh state.
func TestAgreeSecondRound(t *testing.T) {
	s := sim.New()
	const n = 2
	b := NewBoard(s, n, Config{Deadline: 500, Poll: 5})
	var round1 [n][]int
	for rank := 0; rank < n; rank++ {
		rank := rank
		s.Spawn("r", func(p *sim.Proc) {
			if got := b.Agree(p, rank, 0, nil); len(got) != 0 {
				t.Errorf("round 0: rank %d got %v", rank, got)
			}
			var local []int
			if rank == 1 {
				b.MarkDead(0) // pretend rank 0 died... but it still posts
			}
			round1[rank] = b.Agree(p, rank, 1, local)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Board deaths fold into the round-1 union even with empty suspects.
	for rank := 0; rank < n; rank++ {
		if !reflect.DeepEqual(round1[rank], []int{0}) {
			t.Fatalf("round 1: rank %d agreed on %v, want [0]", rank, round1[rank])
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	b := NewBoard(sim.New(), 2, Config{})
	cfg := b.Config()
	if cfg.Deadline <= 0 || cfg.Poll <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.Poll >= cfg.Deadline {
		t.Fatalf("poll %g >= deadline %g", cfg.Poll, cfg.Deadline)
	}
}

// TestConfigCheck: a config passes only if, with unset fields
// defaulted, its poll is finite and its deadline is a finite time above
// that poll.
func TestConfigCheck(t *testing.T) {
	for _, tc := range []struct {
		cfg Config
		ok  bool
	}{
		{Config{}, true},
		{Config{Deadline: 11}, true},
		{Config{Deadline: 6, Poll: 5}, true},
		{Config{Deadline: 10}, false},
		{Config{Deadline: 1}, false},
		{Config{Deadline: 5, Poll: 5}, false},
		{Config{Deadline: 100, Poll: 200}, false},
		{Config{Poll: 10_000}, false},
		{Config{Deadline: math.NaN()}, false},
		{Config{Deadline: math.Inf(1)}, false},
		{Config{Deadline: 100, Poll: math.NaN()}, false},
		{Config{Deadline: 100, Poll: math.Inf(1)}, false},
	} {
		if err := tc.cfg.Check(); (err == nil) != tc.ok {
			t.Errorf("%+v: Check() = %v, want ok %v", tc.cfg, err, tc.ok)
		}
	}
}
