package sim_test

import (
	"fmt"

	"camc/internal/sim"
)

// Two processes exchange a value over a rendezvous channel in virtual
// time; the receiver blocks until the sender arrives at t=5µs.
func Example() {
	s := sim.New()
	c := sim.NewChan[string](s, 0)
	s.Spawn("producer", func(p *sim.Proc) {
		p.Sleep(5)
		c.Send(p, "payload")
	})
	s.Spawn("consumer", func(p *sim.Proc) {
		v := c.Recv(p)
		fmt.Printf("got %q at t=%.0fus\n", v, p.Now())
	})
	if err := s.Run(); err != nil {
		panic(err)
	}
	// Output: got "payload" at t=5us
}
