package kernel

import (
	"fmt"

	"camc/internal/sim"
	"camc/internal/trace"
)

// Mechanism selects which kernel-assisted copy facility the node
// provides. The paper (Table I, §VIII) surveys four: CMA is the default
// it studies, LiMIC and KNEM are kernel modules with per-transfer
// descriptor ("cookie") management, and XPMEM (SGI/Cray) maps the remote
// region into the caller's address space so that, once attached,
// transfers are plain loads/stores with *no* per-page kernel locking —
// the one mechanism the mm-lock contention story does not apply to.
//
// All of CMA, LiMIC and KNEM go through get_user_pages on the data path
// and are "equally affected" by the lock contention (§I); they differ in
// the control-path overhead.
type Mechanism int

// The supported kernel-assist mechanisms.
const (
	// MechCMA: process_vm_readv/writev. Permission check per call, no
	// descriptor management. The paper's choice.
	MechCMA Mechanism = iota
	// MechKNEM: the sender declares a region and passes a cookie; the
	// receiver's copy still pins pages. Extra per-transfer declare cost.
	MechKNEM
	// MechLiMIC: like KNEM with a lighter descriptor.
	MechLiMIC
	// MechXPMEM: the remote region is attached into the caller's address
	// space once; subsequent transfers are userspace memcpy with no
	// kernel page locking (contention-free, but a large first-attach
	// cost and no permission-check portability).
	MechXPMEM
)

// String returns the mechanism's conventional name.
func (m Mechanism) String() string {
	switch m {
	case MechCMA:
		return "cma"
	case MechKNEM:
		return "knem"
	case MechLiMIC:
		return "limic"
	case MechXPMEM:
		return "xpmem"
	}
	return fmt.Sprintf("mechanism(%d)", int(m))
}

// Control-path constants (us), calibrated from the published
// comparisons: KNEM cookie creation is the heaviest, LiMIC's descriptor
// is lighter, XPMEM's one-time attach is expensive but amortized.
const (
	knemCookieCost  = 1.2
	limicCookieCost = 0.5
	xpmemAttachCost = 40.0
	xpmemOpCost     = 0.2 // per-transfer userspace bookkeeping after attach
)

// SetMechanism switches the node's kernel-assist facility.
func (n *Node) SetMechanism(m Mechanism) { n.mechanism = m }

// xpmemKey identifies an attach between two processes.
type xpmemKey struct{ caller, remote int }

// xpmemTransfer runs one transfer over an attached XPMEM segment: an
// expensive one-time attach per (caller, remote) pair, then pure
// userspace copies — no syscall, no permission check, and crucially no
// per-page mm locking, so γ never applies. The copy still shares the
// node memory system and pays the cross-socket penalty.
func (n *Node) xpmemTransfer(sp *sim.Proc, caller *Process, callerAddr Addr, remote *Process, remoteAddr Addr, size int64, read bool) (Breakdown, error) {
	var bd Breakdown
	span := trace.NoSpan
	if n.rec != nil {
		name := "xpmem_read"
		if !read {
			name = "xpmem_write"
		}
		span = n.rec.Begin(n.rec.LaneForPid(caller.pid), trace.CatCMA, name,
			trace.F("peer", float64(n.rec.LaneForPid(remote.pid))),
			trace.F("bytes", float64(size)))
	}
	key := xpmemKey{caller: caller.pid, remote: remote.pid}
	if !n.xpmemAttached[key] {
		// Attach: establish the mapping (this is where XPMEM pays its
		// page-table work, once). Permission is checked here.
		bd.Syscall = xpmemAttachCost
		sp.Sleep(xpmemAttachCost)
		if caller.uid != remote.uid {
			n.record(span, bd, 0)
			return bd, &PermissionError{CallerPID: caller.pid, TargetPID: remote.pid}
		}
		if n.xpmemAttached == nil {
			n.xpmemAttached = map[xpmemKey]bool{}
		}
		n.xpmemAttached[key] = true
	}
	if err := n.checkRange(remote, remoteAddr, size); err != nil {
		n.abortSpan(span, bd)
		return bd, err
	}
	if err := n.checkRange(caller, callerAddr, size); err != nil {
		n.abortSpan(span, bd)
		return bd, err
	}
	sp.Sleep(xpmemOpCost)
	bd.Syscall += xpmemOpCost

	socketMult := 1.0
	if caller.socket != remote.socket {
		socketMult = n.Arch.InterSocketBW
	}
	// Chunked like the CMA path so the bandwidth sharing stays
	// comparable; the per-chunk "lock" is zero.
	chunk := int64(n.ChunkPages) * int64(n.Arch.PageSize)
	if chunk <= 0 {
		chunk = int64(DefaultChunkPages) * int64(n.Arch.PageSize)
	}
	for off := int64(0); off < size; off += chunk {
		todo := chunk
		if size-off < todo {
			todo = size - off
		}
		n.BeginCopy()
		ct := float64(todo) * n.EffPerByte(n.Arch.Beta()) * socketMult
		bd.Copy += ct
		sp.Sleep(ct)
		n.EndCopy()
		if read {
			movePayload(caller, callerAddr+Addr(off), remote, remoteAddr+Addr(off), todo)
		} else {
			movePayload(remote, remoteAddr+Addr(off), caller, callerAddr+Addr(off), todo)
		}
	}
	n.record(span, bd, 0)
	return bd, nil
}

// extraCost returns the control-path cost the mechanism adds on top of
// the CMA-style data path (cookie creation/lookup for the module-based
// facilities).
func (m Mechanism) extraCost() float64 {
	switch m {
	case MechKNEM:
		return knemCookieCost
	case MechLiMIC:
		return limicCookieCost
	}
	return 0
}
