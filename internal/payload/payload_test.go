package payload

import (
	"fmt"
	"strings"
	"testing"

	"camc/internal/core"
)

func TestBufSizes(t *testing.T) {
	cases := []struct {
		kind       core.Kind
		send, recv int64
	}{
		{core.KindScatter, 40, 10},
		{core.KindGather, 10, 40},
		{core.KindAlltoall, 40, 40},
		{core.KindAllgather, 40, 40},
		{core.KindBcast, 10, 10},
		{core.KindReduce, 10, 10},
	}
	for _, c := range cases {
		s, r, err := BufSizes(c.kind, 4, 10)
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		if s != c.send || r != c.recv {
			t.Errorf("%s: got send %d recv %d, want %d/%d", c.kind, s, r, c.send, c.recv)
		}
	}
	if _, _, err := BufSizes(core.Kind("allreduce"), 4, 10); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestReferenceScatter(t *testing.T) {
	sends := [][]byte{make([]byte, 6), {1, 2, 3, 4, 5, 6}, make([]byte, 6)}
	exp, err := Reference(core.KindScatter, 3, 2, 1, sends)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{{1, 2}, {3, 4}, {5, 6}}
	for r := range want {
		if Diff(r, exp[r], want[r]) != "" {
			t.Errorf("rank %d: got %v, want %v", r, exp[r], want[r])
		}
	}
}

func TestReferenceGather(t *testing.T) {
	sends := [][]byte{{10, 11}, {20, 21}, {30, 31}}
	exp, err := Reference(core.KindGather, 3, 2, 1, sends)
	if err != nil {
		t.Fatal(err)
	}
	if exp[0] != nil || exp[2] != nil {
		t.Error("non-root gather buffers must be unspecified")
	}
	want := []byte{10, 11, 20, 21, 30, 31}
	if Diff(1, exp[1], want) != "" {
		t.Errorf("root: got %v, want %v", exp[1], want)
	}
}

func TestReferenceAlltoall(t *testing.T) {
	sends := [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}}
	exp, err := Reference(core.KindAlltoall, 2, 2, 0, sends)
	if err != nil {
		t.Fatal(err)
	}
	// exp[r][s*c+i] = sends[s][r*c+i]
	want := [][]byte{{1, 2, 5, 6}, {3, 4, 7, 8}}
	for r := range want {
		if Diff(r, exp[r], want[r]) != "" {
			t.Errorf("rank %d: got %v, want %v", r, exp[r], want[r])
		}
	}
}

func TestReferenceAllgather(t *testing.T) {
	// Allgather buffers are p*count long; each rank's contribution is
	// its leading count bytes (the rest is working space).
	sends := [][]byte{{1, 2, 0, 0, 0, 0}, {3, 4, 0, 0, 0, 0}, {5, 6, 0, 0, 0, 0}}
	exp, err := Reference(core.KindAllgather, 3, 2, 0, sends)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 4, 5, 6}
	for r := 0; r < 3; r++ {
		if Diff(r, exp[r], want) != "" {
			t.Errorf("rank %d: got %v, want %v", r, exp[r], want)
		}
	}
}

func TestReferenceBcast(t *testing.T) {
	sends := [][]byte{{0, 0}, {0, 0}, {9, 8}}
	exp, err := Reference(core.KindBcast, 3, 2, 2, sends)
	if err != nil {
		t.Fatal(err)
	}
	if exp[2] != nil {
		t.Error("bcast root's receive buffer must be unspecified")
	}
	for r := 0; r < 2; r++ {
		if Diff(r, exp[r], []byte{9, 8}) != "" {
			t.Errorf("rank %d: got %v", r, exp[r])
		}
	}
}

func TestReferenceReduce(t *testing.T) {
	// Byte-wise modular sum, matching kernel.Process.Combine.
	sends := [][]byte{{200, 1}, {100, 2}, {7, 3}}
	exp, err := Reference(core.KindReduce, 3, 2, 0, sends)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{byte((200 + 100 + 7) % 256), 6} // wraps to 51
	if Diff(0, exp[0], want) != "" {
		t.Errorf("root: got %v, want %v", exp[0], want)
	}
	if exp[1] != nil || exp[2] != nil {
		t.Error("non-root reduce buffers must be unspecified")
	}
}

func TestReferenceRejectsBadSnapshots(t *testing.T) {
	if _, err := Reference(core.KindScatter, 3, 2, 0, [][]byte{{1, 2}, nil, nil}); err == nil {
		t.Error("short root snapshot accepted")
	}
	if _, err := Reference(core.KindScatter, 3, 2, 0, [][]byte{nil, nil, nil}); err == nil {
		t.Error("missing root snapshot accepted")
	}
	if _, err := Reference(core.KindAlltoall, 2, 2, 0, [][]byte{{1, 2, 3, 4}}); err == nil {
		t.Error("wrong snapshot count accepted")
	}
}

func TestDiffPayload(t *testing.T) {
	if d := Diff(0, []byte{1, 2}, []byte{1, 2}); d != "" {
		t.Errorf("equal buffers diff: %q", d)
	}
	if d := Diff(0, []byte{1, 2}, nil); d != "" {
		t.Errorf("unspecified expectation diff: %q", d)
	}
	if d := Diff(3, []byte{1, 9, 3}, []byte{1, 2, 3}); !strings.Contains(d, "rank 3") {
		t.Errorf("mismatch not attributed: %q", d)
	}
	if d := Diff(0, []byte{1}, []byte{1, 2}); d == "" {
		t.Error("length mismatch not reported")
	}
}

// TestPatternLayout pins the seeded send contents: scatter and alltoall
// address a distinct block to every destination, the other kinds one
// count-byte vector followed by zeroed working space.
func TestPatternLayout(t *testing.T) {
	if got := Pattern(core.KindScatter, 2, 1, 2); string(got) != string([]byte{42, 49, 53, 60}) {
		t.Errorf("scatter pattern %v", got)
	}
	if got := Pattern(core.KindAllgather, 2, 1, 2); string(got) != string([]byte{42, 49, 0, 0}) {
		t.Errorf("allgather pattern %v", got)
	}
	if got := Pattern(core.KindBcast, 2, 0, 3); string(got) != string([]byte{5, 12, 19}) {
		t.Errorf("bcast pattern %v", got)
	}
}

// TestVerify runs every kind through Verify on the reference's own
// output, then flips one byte in turn: inside a specified receive
// region it must fail and name the rank and offset; inside a buffer MPI
// leaves unspecified it must pass.
func TestVerify(t *testing.T) {
	const p, count, root = 4, 3, 2
	cases := []struct {
		kind        core.Kind
		rank        int
		off         int
		unspecified bool
	}{
		{core.KindScatter, 0, 2, false},
		{core.KindGather, root, 7, false},
		{core.KindGather, 1, 0, true},
		{core.KindAllgather, 3, 11, false},
		{core.KindAlltoall, 1, 4, false},
		{core.KindBcast, 0, 1, false},
		{core.KindBcast, root, 0, true},
		{core.KindReduce, root, 2, false},
		{core.KindReduce, 0, 1, true},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/rank%d/off%d", c.kind, c.rank, c.off)
		t.Run(name, func(t *testing.T) {
			sends := make([][]byte, p)
			for r := range sends {
				sends[r] = Pattern(c.kind, p, r, count)
			}
			exp, err := Reference(c.kind, p, count, root, sends)
			if err != nil {
				t.Fatal(err)
			}
			_, recvLen, _ := BufSizes(c.kind, p, count)
			recvs := make([][]byte, p)
			for r := range recvs {
				recvs[r] = make([]byte, recvLen)
				copy(recvs[r], exp[r]) // unspecified buffers stay zero
			}
			read := func(r int) []byte { return recvs[r] }
			if err := Verify(c.kind, p, count, root, sends, read); err != nil {
				t.Fatalf("reference output rejected: %v", err)
			}
			recvs[c.rank][c.off] ^= 0xFF
			err = Verify(c.kind, p, count, root, sends, read)
			if c.unspecified {
				if err != nil {
					t.Fatalf("flip in an unspecified buffer rejected: %v", err)
				}
				return
			}
			want := fmt.Sprintf("rank %d offset %d:", c.rank, c.off)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("flip not caught as %q: %v", want, err)
			}
		})
	}
	if err := Verify(core.KindBcast, p, count, root, nil, nil); err == nil {
		t.Error("missing send snapshots accepted")
	}
}
