package liveness

import (
	"reflect"
	"testing"

	"camc/internal/sim"
)

// TestAgreeAllButOneDead: the degenerate quorum — every rank but one is
// already dead when the round starts. The lone survivor must publish
// immediately (everyone else is posted-or-dead from its first look) and
// adopt the full dead set without waiting out a deadline.
func TestAgreeAllButOneDead(t *testing.T) {
	s := sim.New()
	const n = 5
	b := NewBoard(s, n, Config{Deadline: 1000, Poll: 5})
	for r := 1; r < n; r++ {
		b.MarkDead(r)
	}
	var got []int
	var at sim.Time
	s.Spawn("r0", func(p *sim.Proc) {
		got = b.Agree(p, 0, 0, []int{1})
		at = s.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("agreed = %v, want %v", got, want)
	}
	if at != 0 {
		t.Fatalf("lone survivor waited until %g to publish; want immediate", at)
	}
	if b.AgreedAt(0) != at {
		t.Fatalf("AgreedAt = %g, publish was at %g", b.AgreedAt(0), at)
	}
}

// TestAgreeSimultaneousDeaths: two ranks die at the same virtual
// instant within one round. All survivors must adopt the identical
// two-element set, and the board must keep one death instant for both.
func TestAgreeSimultaneousDeaths(t *testing.T) {
	s := sim.New()
	const n = 6
	b := NewBoard(s, n, Config{Deadline: 1000, Poll: 5})
	results := make([][]int, n)
	s.Spawn("killer", func(p *sim.Proc) {
		p.Sleep(17)
		b.MarkDead(2)
		b.MarkDead(4) // same instant, no intervening sleep
	})
	for rank := 0; rank < n; rank++ {
		if rank == 2 || rank == 4 {
			continue
		}
		rank := rank
		s.Spawn("r", func(p *sim.Proc) {
			p.Sleep(20) // enter the round after both deaths landed
			var local []int
			if rank == 0 {
				local = []int{2} // rank 0 only noticed one of the two
			}
			results[rank] = b.Agree(p, rank, 0, local)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 4}
	for rank, res := range results {
		if rank == 2 || rank == 4 {
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("rank %d agreed on %v, want %v", rank, res, want)
		}
	}
	if at, ok := b.FirstDeathAt(); !ok || at != 17 {
		t.Fatalf("FirstDeathAt = (%g,%v), want (17,true)", at, ok)
	}
}

// TestAgreeDeathDuringRound: a rank dies while the agreement round is
// already in progress — it never posts and stops beating after the
// survivors have started waiting. The survivors must ride the deadline,
// mark the silent rank dead, and still converge on one set.
func TestAgreeDeathDuringRound(t *testing.T) {
	s := sim.New()
	const n = 4
	cfg := Config{Deadline: 200, Poll: 5}
	b := NewBoard(s, n, cfg)
	results := make([][]int, n)
	for rank := 0; rank < n-1; rank++ {
		rank := rank
		s.Spawn("r", func(p *sim.Proc) {
			results[rank] = b.Agree(p, rank, 0, nil)
		})
	}
	// Rank 3 beats for a while — proving it was alive after the round
	// began — then goes permanently silent without posting or marking.
	s.Spawn("r3", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			b.Beat(3)
			p.Sleep(10)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{3}
	for rank := 0; rank < n-1; rank++ {
		if !reflect.DeepEqual(results[rank], want) {
			t.Fatalf("rank %d agreed on %v, want %v", rank, results[rank], want)
		}
	}
	if !b.Dead(3) {
		t.Fatal("silent rank never declared dead")
	}
	// Detection could not have happened before rank 3's last beat plus a
	// full deadline of silence.
	if at := b.AgreedAt(0); at < 40+cfg.Deadline {
		t.Fatalf("agreed at %g, before the silent rank's last beat (40) + deadline (%g)", at, cfg.Deadline)
	}
}

// TestAgreePostThenDie: a rank contributes its suspect set and dies
// right after. Its post still counts, its own death joins the union via
// the board, and the survivors do not wait a deadline for it.
func TestAgreePostThenDie(t *testing.T) {
	s := sim.New()
	const n = 4
	b := NewBoard(s, n, Config{Deadline: 1000, Poll: 5})
	results := make([][]int, n)
	s.Spawn("r2", func(p *sim.Proc) {
		// Post by running one Agree step's worth: the rank enters the
		// round, then dies before it can see the published set.
		b.rounds.At(0).Post(2, []int{1})
		p.Sleep(3)
		b.MarkDead(2)
	})
	for _, rank := range []int{0, 1, 3} {
		rank := rank
		s.Spawn("r", func(p *sim.Proc) {
			p.Sleep(10)
			results[rank] = b.Agree(p, rank, 0, nil)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2}
	for _, rank := range []int{0, 1, 3} {
		if !reflect.DeepEqual(results[rank], want) {
			t.Fatalf("rank %d agreed on %v, want %v", rank, results[rank], want)
		}
	}
	if at := b.AgreedAt(0); at != 10 {
		t.Fatalf("agreed at %g; posted-then-dead rank should not cost a deadline", at)
	}
}
