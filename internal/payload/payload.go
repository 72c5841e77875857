// Package payload is the one payload oracle: the buffer layout of each
// collective kind, the deterministic send pattern the harnesses seed,
// and a deliberately naive, obviously-correct reference executor of
// each collective's data semantics, computed sequentially on plain byte
// slices with no algorithmic cleverness whatsoever. Whatever schedule,
// tree, ring or degraded path the real algorithm took, its receive
// buffers must match the reference's.
//
// The package imports only core, so both the measurement harnesses and
// the differential checker can share it.
package payload

import (
	"fmt"
	"strings"

	"camc/internal/core"
)

// BufSizes returns the send/receive buffer lengths for one rank of a
// p-rank communicator running kind with per-rank block size count.
func BufSizes(kind core.Kind, p int, count int64) (sendLen, recvLen int64, err error) {
	blocks := int64(p)
	switch kind {
	case core.KindScatter:
		return blocks * count, count, nil
	case core.KindGather:
		return count, blocks * count, nil
	case core.KindAlltoall, core.KindAllgather:
		return blocks * count, blocks * count, nil
	case core.KindBcast, core.KindReduce:
		return count, count, nil
	}
	return 0, 0, fmt.Errorf("payload: unsupported kind %q", kind)
}

// Pattern returns rank's deterministic send buffer for a p-rank
// communicator running kind, laid out per BufSizes. Scatter and
// alltoall senders address one distinct block to every destination;
// every other kind contributes one count-byte vector, and the rest of
// the buffer stays zero. kind must be one BufSizes accepts.
func Pattern(kind core.Kind, p, rank int, count int64) []byte {
	sendLen, _, err := BufSizes(kind, p, count)
	if err != nil {
		panic(err)
	}
	buf := make([]byte, sendLen)
	blocks := 1
	if kind == core.KindScatter || kind == core.KindAlltoall {
		blocks = p
	}
	for d := 0; d < blocks; d++ {
		for i := int64(0); i < count; i++ {
			buf[int64(d)*count+i] = byte(rank*37 + d*11 + int(i)*7 + 5)
		}
	}
	return buf
}

// Reference computes the expected receive buffer of every rank from a
// snapshot of the send buffers. sends[r] is rank r's send buffer (laid
// out per BufSizes). The returned slice has one entry per rank; a nil
// entry means MPI leaves that rank's receive buffer unspecified (e.g.
// non-roots in gather and reduce, the root in bcast), so the
// differential comparison must skip it.
func Reference(kind core.Kind, p int, count int64, root int, sends [][]byte) ([][]byte, error) {
	_, recvLen, err := checkSends(kind, p, count, sends)
	if err != nil {
		return nil, err
	}
	exp := make([][]byte, p)
	for r := range exp {
		buf := make([]byte, recvLen)
		if expect(kind, p, count, root, sends, r, buf) {
			exp[r] = buf
		}
	}
	return exp, nil
}

// Verify compares every rank's receive buffer, read through recv,
// against Reference over sends, one rank at a time: only one expected
// buffer is ever held, and the receive buffers are neither copied nor
// snapshotted. The error names each mismatching rank's first offset.
func Verify(kind core.Kind, p int, count int64, root int, sends [][]byte, recv func(rank int) []byte) error {
	_, recvLen, err := checkSends(kind, p, count, sends)
	if err != nil {
		return err
	}
	exp := make([]byte, recvLen)
	var diffs []string
	for r := 0; r < p; r++ {
		clear(exp)
		if !expect(kind, p, count, root, sends, r, exp) {
			continue
		}
		if d := Diff(r, recv(r), exp); d != "" {
			diffs = append(diffs, d)
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("payload mismatch vs reference executor: %s", strings.Join(diffs, "; "))
	}
	return nil
}

// Diff compares a rank's observed receive buffer against the reference
// and returns a description of the first mismatch ("" on match). exp ==
// nil (unspecified buffer) always matches.
func Diff(rank int, got, exp []byte) string {
	if exp == nil {
		return ""
	}
	if len(got) != len(exp) {
		return fmt.Sprintf("rank %d: recv length %d, reference %d", rank, len(got), len(exp))
	}
	for i := range got {
		if got[i] != exp[i] {
			return fmt.Sprintf("rank %d offset %d: got %#02x, reference %#02x", rank, i, got[i], exp[i])
		}
	}
	return ""
}

// checkSends validates the send snapshots against kind's layout.
func checkSends(kind core.Kind, p int, count int64, sends [][]byte) (sendLen, recvLen int64, err error) {
	if len(sends) != p {
		return 0, 0, fmt.Errorf("payload: %d send snapshots for %d ranks", len(sends), p)
	}
	sendLen, recvLen, err = BufSizes(kind, p, count)
	if err != nil {
		return 0, 0, err
	}
	for r, s := range sends {
		if int64(len(s)) != sendLen {
			return 0, 0, fmt.Errorf("payload: rank %d send snapshot is %d bytes, want %d", r, len(s), sendLen)
		}
	}
	return sendLen, recvLen, nil
}

// expect writes rank r's expected receive buffer into the zeroed dst
// and reports whether MPI specifies it at all.
func expect(kind core.Kind, p int, count int64, root int, sends [][]byte, r int, dst []byte) bool {
	switch kind {
	case core.KindScatter:
		// Block r of the root's send buffer lands in rank r's recv.
		copy(dst, sends[root][int64(r)*count:int64(r+1)*count])
	case core.KindGather:
		// Rank s's send vector lands in block s of the root's recv.
		if r != root {
			return false
		}
		for s := 0; s < p; s++ {
			copy(dst[int64(s)*count:], sends[s][:count])
		}
	case core.KindAllgather:
		// Every rank ends with every rank's send vector, in rank order.
		for s := 0; s < p; s++ {
			copy(dst[int64(s)*count:], sends[s][:count])
		}
	case core.KindAlltoall:
		// Block r of rank s's send buffer lands in block s of rank r's
		// recv buffer.
		for s := 0; s < p; s++ {
			copy(dst[int64(s)*count:], sends[s][int64(r)*count:int64(r+1)*count])
		}
	case core.KindBcast:
		// The root's send vector lands in every non-root's recv; the
		// root's own recv buffer is untouched.
		if r == root {
			return false
		}
		copy(dst, sends[root][:count])
	case core.KindReduce:
		// Byte-wise modular sum of every rank's send vector at the root
		// (the simulated kernel's Combine is a byte add).
		if r != root {
			return false
		}
		for s := 0; s < p; s++ {
			for i := int64(0); i < count; i++ {
				dst[i] += sends[s][i]
			}
		}
	}
	return true
}
