package shm

import (
	"fmt"
	"strings"
	"testing"

	"camc/internal/kernel"
	"camc/internal/sim"
)

// TestProtocolChecks: every receive rejects a message its protocol
// cannot take, naming the pair, instead of consuming it silently or
// waiting forever. Rank 0 runs send, rank 1 runs recv, on a node that
// copies bytes.
func TestProtocolChecks(t *testing.T) {
	type body func(tr *Transport, sp *sim.Proc, proc *kernel.Process)
	send := func(size int64) body {
		return func(tr *Transport, sp *sim.Proc, proc *kernel.Process) { tr.Send(sp, 0, 1, 5, proc, 0, size) }
	}
	recv := func(tag int, size int64) body {
		return func(tr *Transport, sp *sim.Proc, proc *kernel.Process) { tr.Recv(sp, 0, 1, tag, proc, 0, size) }
	}
	exchange := func(tag int, sSize, rSize int64) body {
		return func(tr *Transport, sp *sim.Proc, proc *kernel.Process) {
			tr.Exchange(sp, 1, 0, 0, tag, proc, 0, sSize, 1<<20, rSize)
		}
	}
	ctl := func(tr *Transport, sp *sim.Proc, _ *kernel.Process) { tr.SendCtl(sp, 0, 1, 5, 1) }
	recvCtl := func(tag int) body {
		return func(tr *Transport, sp *sim.Proc, _ *kernel.Process) { tr.RecvCtl(sp, 0, 1, tag) }
	}
	vec := func(tr *Transport, sp *sim.Proc, _ *kernel.Process) { tr.sendCtlVec(sp, 0, 1, 5, []int64{1, 2, 3}) }
	recvVec := func(tag, n int) body {
		return func(tr *Transport, sp *sim.Proc, _ *kernel.Process) { tr.recvCtlVec(sp, 0, 1, tag, n) }
	}
	for _, tc := range []struct {
		name       string
		send, recv body
		want       string
	}{
		{"RecvCtl tag", ctl, recvCtl(6), "tag mismatch on 0->1: got 5, want 6"},
		{"recvCtlVec tag", vec, recvVec(6, 3), "tag mismatch on 0->1: got 5, want 6"},
		{"Recv tag", send(100), recv(6, 100), "tag mismatch on 0->1: got 5, want 6"},
		{"Exchange tag", send(100), exchange(6, 100, 100), "tag mismatch on 0->1: got 5, want 6"},
		{"RecvCtl data", send(100), recvCtl(5), "expected control message on 0->1"},
		{"RecvCtl zero-byte data", send(0), recvCtl(5), "expected control message on 0->1"},
		{"recvCtlVec length", vec, recvVec(5, 4), "expected 4-entry control vector on 0->1, got 3"},
		{"Recv staged more", send(100), recv(5, 50), "size mismatch"},
		{"Recv staged fewer", send(50), recv(5, 100), "size mismatch"},
		{"Exchange staged more", send(100), exchange(5, 0, 50), "size mismatch"},
		{"Exchange staged fewer", send(50), exchange(5, 0, 100), "size mismatch"},
		{"Recv control", ctl, recv(5, 100), "expected data cell on 0->1, got control message"},
		{"Exchange control", ctl, exchange(5, 0, 100), "expected data cell on 0->1, got control message"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _, tr, procs := fixture(2, true)
			s.Spawn("r0", func(sp *sim.Proc) { tc.send(tr, sp, procs[0]) })
			s.Spawn("r1", func(sp *sim.Proc) { tc.recv(tr, sp, procs[1]) })
			got := func() (v any) {
				defer func() { v = recover() }()
				if err := s.Run(); err != nil {
					return err
				}
				return nil
			}()
			if msg := fmt.Sprint(got); !strings.Contains(msg, tc.want) {
				t.Fatalf("run ended with %v, want a panic containing %q", got, tc.want)
			}
		})
	}
}
