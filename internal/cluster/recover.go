package cluster

import (
	"encoding/binary"
	"fmt"

	"camc/internal/core"
	"camc/internal/kernel"
	"camc/internal/liveness"
	"camc/internal/trace"
)

// Shrunk is the node map the leader designs read. After a world shrink
// it is the survivor table every survivor derives (and agrees on,
// because it is a pure function of the agreed failed set); Lookup
// builds the same table with no failures, which is the identity
// (Prefix[n] = n·PPN, OldWorld[w] = w, every node alive). Original
// world ranks remain the liveness board slots and fabric addresses
// forever — the NEW node-major numbering exists only for payload layout
// and re-planning.
type Shrunk struct {
	// Failed is the agreed dead set, original world numbering, sorted;
	// empty on a full cluster's table.
	Failed []int
	// World is the original world size, NewSize the survivor count, PPN
	// the cluster's ranks per node.
	World, NewSize, PPN int
	// NewRoot is the re-run root in new numbering: the original root's
	// new id if it survived, otherwise new id 0 (the lowest-world-rank
	// survivor — the same deterministic successor rule used for leader
	// re-election).
	NewRoot int
	// OldWorld maps new ids to original world ranks; NewWorld is the
	// inverse (-1 = dead). Both are node-major, so a node's survivors
	// are contiguous in the new numbering.
	OldWorld, NewWorld []int
	// AliveNodes lists original node ids with at least one survivor,
	// ascending; NodeIdx is the inverse (-1 = whole node lost).
	AliveNodes, NodeIdx []int
	// Prefix[n] is the first new id on original node n (len NumNodes+1;
	// Prefix[n+1]-Prefix[n] is node n's survivor count).
	Prefix []int
	// Leaders[n] is the original world rank of node n's re-elected
	// leader: the lowest-world-rank survivor on the node, i.e. its new
	// local rank 0 (-1 = whole node lost). This tie-break is the
	// documented deterministic successor rule.
	Leaders []int
	// Orphaned[n] reports that node n survived but the leader of the
	// aborted attempt on it died — such nodes re-run the leader-phase
	// address exchange before joining the world election.
	Orphaned []bool
}

// SurvivorsOn returns original node n's survivor count.
func (sh *Shrunk) SurvivorsOn(n int) int { return sh.Prefix[n+1] - sh.Prefix[n] }

// NodeOfNew maps a new world id to its original node.
func (sh *Shrunk) NodeOfNew(id int) int { return sh.OldWorld[id] / sh.PPN }

// rootedKind reports whether kind uses its Root argument (the
// non-rooted kinds lead every node from local rank 0).
func rootedKind(kind core.Kind) bool {
	switch kind {
	case core.KindBcast, core.KindGather, core.KindScatter, core.KindReduce:
		return true
	}
	return false
}

// buildShrunkTable derives the survivor table from the agreed failed
// set. kind and origRoot identify the aborted collective, which
// determines each node's original leader (and with it orphanhood).
func buildShrunkTable(cl *Cluster, failed []int, kind core.Kind, origRoot int) *Shrunk {
	world := cl.WorldSize()
	leaderRoot := 0
	if rootedKind(kind) {
		leaderRoot = origRoot
	}
	dead := make([]bool, world)
	for _, f := range failed {
		dead[f] = true
	}
	sh := &Shrunk{
		Failed:     append([]int(nil), failed...),
		World:      world,
		PPN:        cl.PPN,
		OldWorld:   make([]int, 0, world-len(failed)),
		NewWorld:   make([]int, world),
		AliveNodes: make([]int, 0, cl.NumNodes),
		Prefix:     make([]int, cl.NumNodes+1),
		NodeIdx:    make([]int, cl.NumNodes),
		Leaders:    make([]int, cl.NumNodes),
		Orphaned:   make([]bool, cl.NumNodes),
	}
	id := 0
	for n := 0; n < cl.NumNodes; n++ {
		sh.Prefix[n] = id
		sh.NodeIdx[n], sh.Leaders[n] = -1, -1
		first := -1
		for l := 0; l < cl.PPN; l++ {
			w := n*cl.PPN + l
			if dead[w] {
				sh.NewWorld[w] = -1
				continue
			}
			if first < 0 {
				first = w
			}
			sh.NewWorld[w] = id
			sh.OldWorld = append(sh.OldWorld, w)
			id++
		}
		if first >= 0 {
			sh.NodeIdx[n] = len(sh.AliveNodes)
			sh.AliveNodes = append(sh.AliveNodes, n)
			sh.Leaders[n] = first
			origLeader := n * cl.PPN // local 0 unless the root led this node
			if cl.NodeOf(leaderRoot) == n {
				origLeader = leaderRoot
			}
			sh.Orphaned[n] = dead[origLeader]
		}
	}
	sh.Prefix[cl.NumNodes] = id
	sh.NewSize = id
	if id == 0 {
		panic("cluster: shrink with no survivors")
	}
	if nr := sh.NewWorld[origRoot]; nr >= 0 {
		sh.NewRoot = nr
	} else {
		sh.NewRoot = 0
	}
	return sh
}

// WorldBarrier synchronizes n participating world ranks (every
// participant must pass the same n). It is heartbeat-preserving but not
// death-aware — use it only where all n participants are known alive
// (harness entry, pre/post re-run); a liveness-enabled cluster is
// required.
func (r *Rank) WorldBarrier(n int) {
	r.cluster.Live.svBarrier(r.SP, r.World, n)
}

// WorldAgree runs the world-level agreement round (see
// WorldLiveness.Agree); it requires a liveness-enabled cluster.
func (r *Rank) WorldAgree(localErr error) error {
	wl := r.cluster.Live
	if wl == nil {
		return localErr
	}
	return wl.Agree(r, localErr)
}

// WorldShrink rebuilds the cluster's rank tables after an agreed
// failure. Every survivor calls it with the agreed failed set (world
// numbering) plus the aborted collective's kind and root, and gets back
// its handle in the shrunken world plus the shared survivor table. The
// sequence per survivor:
//
//  1. drain this rank's fabric flow queues (stale messages from the
//     aborted attempt must not match the re-run's),
//  2. survivor barrier — all drains complete before any new traffic,
//  3. first survivor per node installs a fresh all-alive world view as
//     the node's liveness board (the old views' deaths served their
//     purpose; keeping them would revoke the re-run),
//  4. node-local communicator shrink (mpi.Rank.Shrink) with the node's
//     share of the failed set — survivors keep their OS processes and
//     world-rank board slots,
//  5. leader re-election (see elect).
func (r *Rank) WorldShrink(failed []int, kind core.Kind, origRoot int) (*Rank, *Shrunk) {
	cl := r.cluster
	wl := cl.Live
	if wl == nil {
		panic("cluster: WorldShrink without liveness")
	}
	sp := r.SP
	cl.Fabric.drainTo(sp, r.World)
	wl.svBarrier(sp, r.World, cl.WorldSize()-len(failed))
	if wl.shrunk == nil {
		wl.shrunk = buildShrunkTable(cl, failed, kind, origRoot)
	}
	sh := wl.shrunk
	if !wl.refreshed[r.Node] {
		wl.refreshed[r.Node] = true
		wl.noteDeaths(wl.views[r.Node])
		v := liveness.NewBoard(cl.Sim, wl.world, wl.cfg)
		for _, w := range sh.OldWorld {
			v.Beat(w) // the new epoch starts with every survivor fresh
		}
		wl.views[r.Node] = v
		cl.Nodes[r.Node].Node.SetLiveness(v)
	}
	var localFailed []int
	for _, f := range failed {
		if cl.NodeOf(f) == r.Node {
			localFailed = append(localFailed, cl.LocalOf(f))
		}
	}
	nr := r.Rank.Shrink(localFailed)
	if t := sp.Now(); t > wl.shrinkEnd {
		wl.shrinkEnd = t
	}
	nrank := &Rank{Rank: nr, Node: r.Node, World: r.World, cluster: cl}
	cl.elect(nrank, sh)
	return nrank, sh
}

// elect runs the deterministic leader re-election. The successor on
// every surviving node is fixed in advance — the lowest-world-rank
// survivor, new local rank 0 — so no votes are needed; what the
// election pays for (and what x12 measures) is re-establishing the
// leader structure: orphaned nodes re-run the leader-phase address
// exchange intra-node, then every node's leader registers its
// credential with the coordinator (the survivor with new world id 0)
// over the fabric and receives the full leader table back. The
// coordinator's incast crosses contended links, so election latency is
// γ_net-aware exactly like the collectives it repairs.
func (cl *Cluster) elect(r *Rank, sh *Shrunk) {
	wl := cl.Live
	sp := r.SP
	if now := sp.Now(); !wl.electSeen || now < wl.electStart {
		wl.electStart, wl.electSeen = now, true
	}
	rec := r.Tracer()
	span := trace.NoSpan
	if rec != nil {
		span = rec.Begin(r.Lane(), trace.CatLiveness, "elect",
			trace.F("leader", float64(sh.Leaders[r.Node])))
	}
	// Orphaned nodes first re-publish leadership intra-node: the
	// successor broadcasts its credential (re-running the leader-phase
	// address exchange) and collects an ack from every member. This is
	// the extra work that makes a dead leader measurably costlier than a
	// dead member.
	if sh.Orphaned[r.Node] {
		cred := r.Bcast64(0, int64(sh.Leaders[r.Node]))
		if cred != int64(sh.Leaders[r.Node]) {
			panic(fmt.Sprintf("cluster: node %d republished leader %d, want %d",
				r.Node, cred, sh.Leaders[r.Node]))
		}
		if r.ID == 0 {
			if rec != nil {
				rec.Instant(r.Lane(), trace.CatLiveness, "leader_elect",
					trace.F("node", float64(r.Node)))
			}
			for m := 1; m < sh.SurvivorsOn(r.Node); m++ {
				r.WaitNotify(m)
			}
		} else {
			r.Notify(0)
		}
	}
	// World registration: every leader exchanges an 8-byte credential
	// with the coordinator and verifies its slot in the returned table.
	coordW := sh.OldWorld[0]
	if r.ID == 0 {
		a := len(sh.AliveNodes)
		tblBytes := int64(8 * a)
		tbl := r.Alloc(tblBytes)
		if r.World == coordW {
			cl.putCred(r, tbl+kernel.Addr(8*sh.NodeIdx[r.Node]), r.World)
			for _, n := range sh.AliveNodes {
				if n == r.Node {
					continue
				}
				slot := tbl + kernel.Addr(8*sh.NodeIdx[n])
				r.NetRecv(sh.Leaders[n], slot, 8)
				cl.checkCred(r, slot, sh.Leaders[n])
				if sh.Orphaned[n] {
					// A successor is a stranger: challenge it before
					// admitting it to the leader table. Incumbent leaders
					// skip this round trip — the extra fabric RTT per
					// orphaned node is what makes a dead leader measurably
					// costlier than a dead member in the elect latency.
					chal := r.Alloc(8)
					cl.putCred(r, chal, sh.Leaders[n])
					r.NetSend(sh.Leaders[n], chal, 8)
					conf := r.Alloc(8)
					r.NetRecv(sh.Leaders[n], conf, 8)
					cl.checkCred(r, conf, sh.Leaders[n])
				}
			}
			for _, n := range sh.AliveNodes {
				if n != r.Node {
					r.NetSend(sh.Leaders[n], tbl, tblBytes)
				}
			}
		} else {
			cred := r.Alloc(8)
			cl.putCred(r, cred, r.World)
			r.NetSend(coordW, cred, 8)
			if sh.Orphaned[r.Node] {
				chal := r.Alloc(8)
				r.NetRecv(coordW, chal, 8)
				cl.checkCred(r, chal, r.World)
				conf := r.Alloc(8)
				cl.putCred(r, conf, r.World)
				r.NetSend(coordW, conf, 8)
			}
			r.NetRecv(coordW, tbl, tblBytes)
			cl.checkCred(r, tbl+kernel.Addr(8*sh.NodeIdx[r.Node]), r.World)
		}
	}
	if rec != nil {
		rec.End(span)
	}
	if t := sp.Now(); t > wl.electEnd {
		wl.electEnd = t
	}
}

// putCred materializes a leader credential (its world rank) at addr.
func (cl *Cluster) putCred(r *Rank, addr kernel.Addr, world int) {
	if !cl.CopyData {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(world))
	r.OS.WriteAt(addr, b[:])
}

// checkCred verifies a received leader credential byte-level.
func (cl *Cluster) checkCred(r *Rank, addr kernel.Addr, want int) {
	if !cl.CopyData {
		return
	}
	got := binary.LittleEndian.Uint64(r.OS.Bytes(addr, 8))
	if got != uint64(want) {
		panic(fmt.Sprintf("cluster: election credential %d, want %d", got, want))
	}
}

// ---------------------------------------------------------------------
// Survivor re-run: the leader design over the shrunken world.
// ---------------------------------------------------------------------

// Rerun executes kind over the survivor world. Whatever design the
// aborted attempt used, the re-run is the leader design (the same
// implementation Lookup resolves) run over the survivor table — the
// re-elected leaders are exactly what the recovery just paid to
// establish, and the leader design is the only one whose node phase
// re-plans cleanly for any survivor count (non-power-of-two counts at
// both granularities, including whole-node loss). Buffers follow the
// NEW node-major numbering: new rank j's block sits at offset j*Count,
// and a.Root is a new world id. Each node's intra phase is re-planned
// via core.Replan at its own survivor count (a lone survivor copies
// locally); the node tier runs over the alive-node list, with
// allgather and alltoall taking the direct leader exchange.
func Rerun(r *Rank, sh *Shrunk, kind core.Kind, intraSpec string, a Args) {
	run, ok := impls[implKey{kind, DesignLeader}]
	if !ok {
		panic(fmt.Sprintf("cluster: no re-run for kind %s", kind))
	}
	h, err := newHier(r.cluster, sh, kind, intraSpec)
	if err != nil {
		panic(fmt.Sprintf("cluster: re-run %s/%s: %v", kind, intraSpec, err))
	}
	Coll{Kind: kind, Design: designRerun, h: h, run: run}.Run(r, a)
}

// directAllgather is the leaders' net phase of allgather over a
// survivor table with failures: every leader sends its node block to
// every other leader (fabric sends are buffered, so all sends go
// first), then receives in ascending node order.
func (h *hier) directAllgather(r *Rank, recv kernel.Addr, count int64) {
	sh := h.sh
	nodeBlock := recv + kernel.Addr(int64(sh.Prefix[r.Node])*count)
	nodeBytes := int64(sh.SurvivorsOn(r.Node)) * count
	for _, n := range sh.AliveNodes {
		if n != r.Node {
			r.NetSend(sh.Leaders[n], nodeBlock, nodeBytes)
		}
	}
	for _, n := range sh.AliveNodes {
		if n == r.Node {
			continue
		}
		r.NetRecv(sh.Leaders[n],
			recv+kernel.Addr(int64(sh.Prefix[n])*count),
			int64(sh.SurvivorsOn(n))*count)
	}
}

// directAlltoall is the leaders' net phase of alltoall over a survivor
// table with failures. stage holds the node's member send vectors
// member-major (each NewSize*count bytes); the result lands in mstage
// as the members' receive vectors.
func (h *hier) directAlltoall(r *Rank, stage, mstage kernel.Addr, count int64) {
	sh := h.sh
	cl := h.cl
	kn := sh.SurvivorsOn(r.Node)
	base := sh.Prefix[r.Node]
	vec := int64(sh.NewSize) * count
	// Pack and post one bundle per remote node (source-member major:
	// member sl's blocks for all of n's members), then receive and
	// unpack in ascending node order.
	for _, n := range sh.AliveNodes {
		if n == r.Node {
			continue
		}
		km := sh.SurvivorsOn(n)
		slot := int64(km) * count
		bundle := r.Alloc(int64(kn) * slot)
		r.packCost(int64(kn) * slot)
		if cl.CopyData {
			for sl := 0; sl < kn; sl++ {
				r.movePayload(bundle+kernel.Addr(int64(sl)*slot),
					stage+kernel.Addr(int64(sl)*vec+int64(sh.Prefix[n])*count), slot)
			}
		}
		r.NetSend(sh.Leaders[n], bundle, int64(kn)*slot)
	}
	// Local transpose of this node's own blocks.
	r.packCost(int64(kn) * int64(kn) * count)
	if cl.CopyData {
		for sl := 0; sl < kn; sl++ {
			for dl := 0; dl < kn; dl++ {
				r.movePayload(mstage+kernel.Addr(int64(dl)*vec+int64(base+sl)*count),
					stage+kernel.Addr(int64(sl)*vec+int64(base+dl)*count), count)
			}
		}
	}
	for _, n := range sh.AliveNodes {
		if n == r.Node {
			continue
		}
		km := sh.SurvivorsOn(n)
		in := r.Alloc(int64(km) * int64(kn) * count)
		r.NetRecv(sh.Leaders[n], in, int64(km)*int64(kn)*count)
		r.packCost(int64(km) * int64(kn) * count)
		if cl.CopyData {
			for slm := 0; slm < km; slm++ {
				for dl := 0; dl < kn; dl++ {
					r.movePayload(
						mstage+kernel.Addr(int64(dl)*vec+int64(sh.Prefix[n]+slm)*count),
						in+kernel.Addr(int64(slm)*int64(kn)*count+int64(dl)*count), count)
				}
			}
		}
	}
}
