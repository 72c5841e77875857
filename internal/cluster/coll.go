package cluster

import (
	"fmt"

	"camc/internal/core"
	"camc/internal/kernel"
	"camc/internal/trace"
)

// Design selects how a cluster collective decomposes across nodes.
type Design string

// The three designs the x11 experiment compares.
const (
	// DesignFlat runs one world-spanning algorithm: every edge is either
	// an intra-node point-to-point transfer or a network message. This is
	// what stock libraries degrade to when their hierarchical path is off.
	DesignFlat Design = "flat"
	// DesignLeader is the paper's two-level design: a contention-aware
	// intra-node phase to/from a node leader, and a node-level algorithm
	// among leaders over the fabric — O(nodes) network flows, not O(world).
	DesignLeader Design = "leader"
	// DesignShared is the MPI+MPI-style variant: the on-node phase is not
	// an algorithm but direct shared-address traffic — members CMA-write
	// into (or CMA-read out of) the leader's buffers, contending on the
	// leader's mm-lock exactly as the paper's γ(c) model predicts.
	DesignShared Design = "shared"
	// DesignFlatShm is DesignFlat with its on-node edges over the two-copy
	// shared-memory transport instead of kernel-assisted rendezvous: the
	// single-level comparator of Intel MPI-like libraries in Fig 17. It is
	// not in Designs(), which lists the designs x11 and the checker compare.
	DesignFlatShm Design = "flat-shm"
	// designRerun labels the survivor re-run ("hcoll:<kind>:rerun"
	// span); Rerun runs the leader implementations under it, and Lookup
	// does not resolve it.
	designRerun Design = "rerun"
)

// Designs returns the registered designs in comparison order.
func Designs() []Design { return []Design{DesignFlat, DesignLeader, DesignShared} }

// Args names the world-level buffers of a cluster collective. Layout
// follows core.Args with p = world size: world rank w's block sits at
// offset w*Count of the rooted/gathered buffer, and world layout is
// node-major (rank w lives on node w/PPN), so a node's blocks are
// contiguous. Root is a world rank.
type Args struct {
	Send  kernel.Addr
	Recv  kernel.Addr
	Count int64
	Root  int
	// Segments pipelines the leader gather (the paper's §IX design): each
	// leader ships node segment s over the fabric while its node gathers
	// segment s+1. 0 or 1 is the unsegmented gather. Run rejects it on
	// every other kind and design, and on CopyData clusters, because the
	// staged node block is segment-major rather than rank-major.
	Segments int
}

// Coll is a resolved cluster collective: one kind, one design, one
// intra-node algorithm choice.
type Coll struct {
	Kind   core.Kind
	Design Design
	// Name labels the resolved variant for tables and traces: "flat",
	// "flat-shm" or "<design>/<intra algorithm>".
	Name string

	h   *hier
	run func(h *hier, r *Rank, a Args)
}

// implKey names one implementation: a kind under a design.
type implKey struct {
	kind   core.Kind
	design Design
}

// impls is the kind × design → implementation table. Lookup resolves
// every design through it, and Rerun takes its leader entries.
var impls = map[implKey]func(h *hier, r *Rank, a Args){
	{core.KindBcast, DesignFlat}:       (*hier).flatBcast,
	{core.KindBcast, DesignLeader}:     (*hier).bcastLeader,
	{core.KindBcast, DesignShared}:     (*hier).bcastShared,
	{core.KindGather, DesignFlat}:      (*hier).flatGather,
	{core.KindGather, DesignLeader}:    (*hier).gatherLeader,
	{core.KindGather, DesignShared}:    (*hier).gatherShared,
	{core.KindScatter, DesignFlat}:     (*hier).flatScatter,
	{core.KindScatter, DesignLeader}:   (*hier).scatterLeader,
	{core.KindScatter, DesignShared}:   (*hier).scatterShared,
	{core.KindAllgather, DesignFlat}:   (*hier).flatAllgather,
	{core.KindAllgather, DesignLeader}: (*hier).allgatherLeader,
	{core.KindAllgather, DesignShared}: (*hier).allgatherShared,
	{core.KindAlltoall, DesignFlat}:    (*hier).flatAlltoall,
	{core.KindAlltoall, DesignLeader}:  (*hier).alltoallLeader,
	{core.KindAlltoall, DesignShared}:  (*hier).alltoallShared,
	{core.KindReduce, DesignFlat}:      (*hier).flatReduce,
	{core.KindReduce, DesignLeader}:    (*hier).reduceLeader,
	{core.KindReduce, DesignShared}:    (*hier).reduceShared,
}

// Lookup resolves a cluster collective. intraSpec is the same-kind
// intra-node algorithm spec (core spec grammar, "" = tuned), re-planned
// for the cluster's PPN exactly like post-shrink Replan clamps tuning
// parameters to the communicator size. The flat designs and the kinds
// whose hierarchical decomposition has no same-kind on-node phase
// (alltoall) validate the spec but do not run it. The two-level designs
// address nodes through the full cluster's node map, the identity
// Shrunk table; Rerun runs the same leader functions over a survivor
// table.
func Lookup(cl *Cluster, kind core.Kind, design Design, intraSpec string) (Coll, error) {
	h, err := newHier(cl, buildShrunkTable(cl, nil, kind, 0), kind, intraSpec)
	if err != nil {
		return Coll{}, err
	}
	impl := design
	if design == DesignFlatShm {
		h.tr = core.TransportShm
		impl = DesignFlat
	}
	run, ok := impls[implKey{kind, impl}]
	if !ok {
		return Coll{}, fmt.Errorf("cluster: no %q implementation of %s (designs: %v)", design, kind, Designs())
	}
	name := string(design)
	if impl != DesignFlat {
		name += "/" + h.intra.Name
	}
	return Coll{Kind: kind, Design: design, Name: name, h: h, run: run}, nil
}

// Run executes the collective on the calling world rank. Every rank of
// the cluster must call Run with consistent Count and Root.
func (c Coll) Run(r *Rank, a Args) {
	if a.Count < 0 {
		panic(fmt.Sprintf("cluster: negative count %d", a.Count))
	}
	if a.Root < 0 || a.Root >= r.cluster.WorldSize() {
		panic(fmt.Sprintf("cluster: root %d out of world range %d", a.Root, r.cluster.WorldSize()))
	}
	if a.Segments < 0 {
		panic(fmt.Sprintf("cluster: negative segment count %d", a.Segments))
	}
	if a.Segments > 1 {
		if c.Kind != core.KindGather || c.Design != DesignLeader {
			panic(fmt.Sprintf("cluster: %d segments on %s/%s: only the leader gather pipelines", a.Segments, c.Kind, c.Design))
		}
		if r.cluster.CopyData {
			panic(fmt.Sprintf("cluster: %d segments on a CopyData cluster: the staged node block is segment-major", a.Segments))
		}
	}
	rec := r.Tracer()
	var span trace.SpanID
	if rec.Enabled() {
		span = rec.Begin(r.Lane(), trace.CatColl, "hcoll:"+string(c.Kind)+":"+string(c.Design),
			trace.F("bytes", float64(a.Count)), trace.F("root", float64(a.Root)))
	}
	c.run(c.h, r, a)
	if rec.Enabled() {
		rec.End(span)
	}
}

// hier carries the resolved pieces a collective family closes over.
type hier struct {
	cl *Cluster
	// sh is the node map the leader designs address everything
	// through: Lookup's full-cluster table (the identity: node n's
	// ranks are n·PPN onwards) or a re-run's survivor table. Roots and
	// buffer offsets are in its numbering.
	sh   *Shrunk
	kind core.Kind
	spec string
	// intra is the same-kind intra-node plan at the cluster's PPN.
	intra core.Algorithm
	// tr selects the intra-node transport of the flat edges: pt2pt
	// (kernel-assisted rendezvous) for DesignFlat, shm (two-copy) for
	// DesignFlatShm.
	tr core.Transport
}

// newHier resolves the intra-node plan for kind and spec ("" = tuned)
// over the node map sh.
func newHier(cl *Cluster, sh *Shrunk, kind core.Kind, spec string) (*hier, error) {
	if spec == "" {
		spec = "tuned"
	}
	intra, err := core.Replan(kind, spec, cl.PPN)
	if err != nil {
		return nil, err
	}
	return &hier{cl: cl, sh: sh, kind: kind, spec: spec, intra: intra}, nil
}

// intraOn is the same-kind intra-node plan for a node of kn ranks:
// the PPN plan on a full node, core.Replan at kn on a shrunk one.
func (h *hier) intraOn(kn int) core.Algorithm {
	if kn == h.cl.PPN {
		return h.intra
	}
	al, err := core.Replan(h.kind, h.spec, kn)
	if err != nil {
		panic(fmt.Sprintf("cluster: replan %s/%s for %d survivors: %v", h.kind, h.spec, kn, err))
	}
	return al
}

// phase wraps an on-node ("h_intra") or inter-node ("h_net") stage in a
// collective-category span, so the registry invariants can check stage
// ordering on traced runs.
func (h *hier) phase(r *Rank, name string, f func()) {
	rec := r.Tracer()
	if !rec.Enabled() {
		f()
		return
	}
	span := rec.Begin(r.Lane(), trace.CatColl, name)
	f()
	rec.End(span)
}

// leaderLocal returns the node-local leader rank on a node: the root
// leads its own node (so the root's buffers are used in place), local
// rank 0 leads everywhere else. Non-rooted kinds pass root 0.
func (h *hier) leaderLocal(node, root int) int {
	if h.sh.NodeOfNew(root) == node {
		return root - h.sh.Prefix[node]
	}
	return 0
}

// leaderWorld is the world rank of a node's leader.
func (h *hier) leaderWorld(node, root int) int {
	return h.sh.OldWorld[h.sh.Prefix[node]+h.leaderLocal(node, root)]
}

// nodeStage is where a rooted kind's leader stages its node's block of
// buf (count bytes per member): in place on the root's node, a fresh
// block elsewhere. Other members get buf, which they never address.
func (h *hier) nodeStage(r *Rank, lead, root int, buf kernel.Addr, count int64) kernel.Addr {
	sh := h.sh
	switch {
	case r.ID != lead:
		return buf
	case r.Node == sh.NodeOfNew(root):
		return buf + kernel.Addr(int64(sh.Prefix[r.Node])*count)
	}
	return r.Alloc(int64(sh.SurvivorsOn(r.Node)) * count)
}

func lowbit(v int) int { return v & -v }

// packCost charges the user-space memcpy time of moving total bytes as
// one aggregate sleep. The bulk pack/unpack/rotation stages of the Bruck
// ports use it (plus cost-free movePayload calls for the actual bytes)
// so a 4096-node run does not expand into millions of per-block
// LocalCopy events.
func (r *Rank) packCost(total int64) {
	if total > 0 {
		r.SP.Sleep(float64(total) * r.cluster.Arch.MemCopyBeta())
	}
}

// movePayload moves payload bytes without simulated cost (the caller
// has charged an aggregate packCost); no-op on dataless runs.
func (r *Rank) movePayload(dst, src kernel.Addr, n int64) {
	if !r.cluster.CopyData || n <= 0 {
		return
	}
	tmp := append([]byte(nil), r.OS.Bytes(src, n)...)
	r.OS.WriteAt(dst, tmp)
}

// binomialBcast walks the binomial broadcast tree over n positions from
// position rel (root 0): receive from the parent, then send to each
// child, farthest first.
func binomialBcast(n, rel int, recv, send func(pos int)) {
	if rel != 0 {
		recv(rel - lowbit(rel))
	}
	top := lowbit(rel)
	if rel == 0 {
		top = 1
		for top < n {
			top <<= 1
		}
	}
	for mask := top >> 1; mask >= 1; mask >>= 1 {
		if child := rel + mask; child < n {
			send(child)
		}
	}
}

// binomialReduce walks the binomial reduction tree over n positions
// from position rel (root 0): fold each child's contribution in
// (recv(pos, scratch) then combine, scratch allocated on first use),
// then send the accumulator acc to the parent.
func binomialReduce(r *Rank, n, rel int, acc kernel.Addr, size int64, recv, send func(pos int, buf kernel.Addr)) {
	var scratch kernel.Addr
	haveScratch := false
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			send(rel-mask, acc)
			return
		}
		if peer := rel + mask; peer < n {
			if !haveScratch {
				scratch = r.Alloc(size)
				haveScratch = true
			}
			recv(peer, scratch)
			r.OS.Combine(r.SP, acc, scratch, size)
		}
	}
}

// exchange sends sn bytes at sa to position dst and receives rn bytes
// at ra from position src.
type exchange func(dst int, sa kernel.Addr, sn int64, src int, ra kernel.Addr, rn int64)

// bruckAllgather runs Bruck's allgather over n positions of blk-byte
// blocks: own is the caller's block (position me), and recv ends with
// every block in position order.
func (r *Rank) bruckAllgather(n, me int, blk int64, own, recv kernel.Addr, xchg exchange) {
	work := r.Alloc(int64(n) * blk)
	r.LocalCopy(work, own, blk)
	for filled := 1; filled < n; {
		cnt := min(filled, n-filled)
		sz := int64(cnt) * blk
		xchg((me-filled+n)%n, work, sz, (me+filled)%n, work+kernel.Addr(int64(filled)*blk), sz)
		filled += cnt
	}
	// Rotate back into position order: recv[(me+i) mod n] = work[i].
	r.packCost(int64(n) * blk)
	if r.cluster.CopyData {
		for i := 0; i < n; i++ {
			r.movePayload(recv+kernel.Addr(int64((me+i)%n)*blk), work+kernel.Addr(int64(i)*blk), blk)
		}
	}
}

// selCount returns how many j in [0, n) have bit pow set — the Bruck
// alltoall selection size, computed arithmetically so dataless runs
// never loop over blocks.
func selCount(n, pow int) int64 {
	full := n / (pow * 2) * pow
	rem := n%(pow*2) - pow
	if rem < 0 {
		rem = 0
	}
	return int64(full + rem)
}

// bruckSteps runs the log2(n) exchange steps of Bruck's alltoall over n
// positions of blk-byte blocks held rotated in work: at step pow the
// blocks whose index has bit pow set go to position me+pow and are
// replaced by those from me-pow.
func (r *Rank) bruckSteps(n, me int, blk int64, work kernel.Addr, xchg exchange) {
	stageOut := r.Alloc(int64((n+1)/2) * blk)
	stageIn := r.Alloc(int64((n+1)/2) * blk)
	for pow := 1; pow < n; pow <<= 1 {
		nsel := selCount(n, pow)
		r.packCost(nsel * blk)
		if r.cluster.CopyData {
			u := int64(0)
			for j := 0; j < n; j++ {
				if j&pow != 0 {
					r.movePayload(stageOut+kernel.Addr(u*blk), work+kernel.Addr(int64(j)*blk), blk)
					u++
				}
			}
		}
		xchg((me+pow)%n, stageOut, nsel*blk, (me-pow+n)%n, stageIn, nsel*blk)
		r.packCost(nsel * blk)
		if r.cluster.CopyData {
			u := int64(0)
			for j := 0; j < n; j++ {
				if j&pow != 0 {
					r.movePayload(work+kernel.Addr(int64(j)*blk), stageIn+kernel.Addr(u*blk), blk)
					u++
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Node-level (leader) algorithms over the fabric.
// ---------------------------------------------------------------------

// netBcast is a binomial broadcast among node leaders over the
// alive-node positions of the node map, rooted at the root's node.
func (h *hier) netBcast(r *Rank, root int, buf kernel.Addr, size int64) {
	n, rel, leader := h.nodeTree(r, root)
	binomialBcast(n, rel,
		func(pos int) { r.NetRecv(leader(pos), buf, size) },
		func(pos int) { r.NetSend(leader(pos), buf, size) })
}

// netReduce is the binomial reverse: leaders combine child accumulators
// up the tree; the root's node ends with the global result in acc.
func (h *hier) netReduce(r *Rank, root int, acc kernel.Addr, size int64) {
	n, rel, leader := h.nodeTree(r, root)
	binomialReduce(r, n, rel, acc, size,
		func(pos int, buf kernel.Addr) { r.NetRecv(leader(pos), buf, size) },
		func(pos int, buf kernel.Addr) { r.NetSend(leader(pos), buf, size) })
}

// nodeTree places the caller's node in a tree over the alive nodes
// rooted at root's node: the position count, the caller's position
// relative to the root, and the leader (world rank) at a position.
func (h *hier) nodeTree(r *Rank, root int) (n, rel int, leader func(pos int) int) {
	sh := h.sh
	n = len(sh.AliveNodes)
	rootIdx := sh.NodeIdx[sh.NodeOfNew(root)]
	rel = (sh.NodeIdx[r.Node] - rootIdx + n) % n
	return n, rel, func(pos int) int { return h.leaderWorld(sh.AliveNodes[(pos+rootIdx)%n], root) }
}

// netGather ships each non-root leader's node block (stage, n bytes per
// member) straight to the root, which lands node m's block at
// dst + first(m)·stride. The root drains O(nodes) flows — the incast
// the fabric's γ_net makes expensive, but still a factor PPN fewer
// flows than a flat direct gather.
func (h *hier) netGather(r *Rank, root int, stage, dst kernel.Addr, stride, n int64) {
	sh := h.sh
	rootNode := sh.NodeOfNew(root)
	if r.Node != rootNode {
		r.NetSend(sh.OldWorld[root], stage, int64(sh.SurvivorsOn(r.Node))*n)
		return
	}
	for _, m := range sh.AliveNodes {
		if m == rootNode {
			continue
		}
		r.NetRecv(h.leaderWorld(m, root), dst+kernel.Addr(int64(sh.Prefix[m])*stride), int64(sh.SurvivorsOn(m))*n)
	}
}

// netScatter is the reverse: the root pushes node m's block (at
// src + first(m)·count) to node m's leader.
func (h *hier) netScatter(r *Rank, root int, stage, src kernel.Addr, count int64) {
	sh := h.sh
	rootNode := sh.NodeOfNew(root)
	if r.Node != rootNode {
		r.NetRecv(sh.OldWorld[root], stage, int64(sh.SurvivorsOn(r.Node))*count)
		return
	}
	for _, m := range sh.AliveNodes {
		if m == rootNode {
			continue
		}
		r.NetSend(h.leaderWorld(m, root), src+kernel.Addr(int64(sh.Prefix[m])*count), int64(sh.SurvivorsOn(m))*count)
	}
}

// netExchange is the leaders' exchange over the fabric (full table:
// node id = position): fabric sends are buffered, so send first.
func (h *hier) netExchange(r *Rank) exchange {
	return func(dst int, sa kernel.Addr, sn int64, src int, ra kernel.Addr, rn int64) {
		r.NetSend(h.leaderWorld(dst, 0), sa, sn)
		r.NetRecv(h.leaderWorld(src, 0), ra, rn)
	}
}

// netAllgather runs Bruck's allgather among leaders at node-block
// granularity: recv must already hold the caller's node block at
// offset node*nodeBytes, and ends with every node block in place. It
// and netAlltoall run on the full cluster's table only (equal node
// blocks, node id = position).
func (h *hier) netAllgather(r *Rank, recv kernel.Addr, nodeBytes int64) {
	n, me := h.cl.NumNodes, r.Node
	if n > 1 {
		r.bruckAllgather(n, me, nodeBytes, recv+kernel.Addr(int64(me)*nodeBytes), recv, h.netExchange(r))
	}
}

// netAlltoall runs Bruck's alltoall among leaders at bundle granularity.
// stage holds the PPN member send vectors member-major (each world*count
// bytes); the result is written to mstage as PPN member receive vectors,
// ready for an intra-node scatter.
func (h *hier) netAlltoall(r *Rank, stage, mstage kernel.Addr, count int64) {
	cl := h.cl
	n, ppn, me := cl.NumNodes, cl.PPN, r.Node
	vec := int64(cl.WorldSize()) * count // one member's full vector
	slot := int64(ppn) * count           // one (member, node) slice
	bundle := int64(ppn) * slot          // everything this node sends one node

	// Phase 1: pack rotated bundles: bwork[j] holds the bundle for node
	// (j+me) mod n; bundle for node d = concat over source members sl of
	// stage[sl].blocks[d*ppn : (d+1)*ppn] (contiguous in the vector).
	bwork := r.Alloc(int64(n) * bundle)
	r.packCost(int64(n) * bundle)
	if cl.CopyData {
		for j := 0; j < n; j++ {
			d := (j + me) % n
			for sl := 0; sl < ppn; sl++ {
				r.movePayload(bwork+kernel.Addr(int64(j)*bundle+int64(sl)*slot),
					stage+kernel.Addr(int64(sl)*vec+int64(d)*slot), slot)
			}
		}
	}
	// Phase 2: log2(n) exchange steps over the fabric.
	r.bruckSteps(n, me, bundle, bwork, h.netExchange(r))
	// Phase 3: inverse rotation + transpose. The bundle from source node
	// j sits at bwork[(me-j+n) mod n]; member dl's block from world rank
	// j*ppn+sl goes to mstage[dl] at offset (j*ppn+sl)*count.
	r.packCost(int64(n) * bundle)
	if cl.CopyData {
		for j := 0; j < n; j++ {
			b := bwork + kernel.Addr(int64((me-j+n)%n)*bundle)
			for sl := 0; sl < ppn; sl++ {
				for dl := 0; dl < ppn; dl++ {
					r.movePayload(mstage+kernel.Addr(int64(dl)*vec+int64(j*ppn+sl)*count),
						b+kernel.Addr(int64(sl)*slot+int64(dl)*count), count)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Leader designs: contention-aware intra-node algorithms on the node,
// node-level algorithms among leaders.
// ---------------------------------------------------------------------

func (h *hier) bcastLeader(r *Rank, a Args) {
	sh := h.sh
	kn := sh.SurvivorsOn(r.Node)
	lead := h.leaderLocal(r.Node, a.Root)
	buf := a.Recv
	if sh.NewWorld[r.World] == a.Root {
		buf = a.Send
	}
	if r.ID == lead {
		h.phase(r, "h_net", func() { h.netBcast(r, a.Root, buf, a.Count) })
	}
	h.phase(r, "h_intra", func() {
		if kn > 1 {
			h.intraOn(kn).Run(r.Rank, core.Args{Send: buf, Recv: a.Recv, Count: a.Count, Root: lead})
		}
	})
}

func (h *hier) gatherLeader(r *Rank, a Args) {
	kn := h.sh.SurvivorsOn(r.Node)
	lead := h.leaderLocal(r.Node, a.Root)
	stage := h.nodeStage(r, lead, a.Root, a.Recv, a.Count)
	// Segment s of every member's block lands segment-major in the node
	// block (a real implementation would address rank-major slots with a
	// strided datatype at identical cost), and the leader ships it while
	// the node gathers segment s+1.
	segs := max(a.Segments, 1)
	segLen := (a.Count + int64(segs) - 1) / int64(segs)
	for s := 0; s < segs; s++ {
		off := int64(s) * segLen
		if s > 0 && off >= a.Count {
			break
		}
		n := min(segLen, a.Count-off)
		seg := kernel.Addr(int64(kn) * off)
		h.phase(r, "h_intra", func() {
			if kn > 1 {
				h.intraOn(kn).Run(r.Rank, core.Args{Send: a.Send + kernel.Addr(off), Recv: stage + seg, Count: n, Root: lead})
			} else {
				r.LocalCopy(stage+seg, a.Send+kernel.Addr(off), n)
			}
		})
		if r.ID == lead {
			h.phase(r, "h_net", func() { h.netGather(r, a.Root, stage+seg, a.Recv+seg, a.Count, n) })
		}
	}
}

func (h *hier) scatterLeader(r *Rank, a Args) {
	kn := h.sh.SurvivorsOn(r.Node)
	lead := h.leaderLocal(r.Node, a.Root)
	stage := h.nodeStage(r, lead, a.Root, a.Send, a.Count)
	if r.ID == lead {
		h.phase(r, "h_net", func() { h.netScatter(r, a.Root, stage, a.Send, a.Count) })
	}
	h.phase(r, "h_intra", func() {
		if kn > 1 {
			h.intraOn(kn).Run(r.Rank, core.Args{Send: stage, Recv: a.Recv, Count: a.Count, Root: lead})
		} else {
			r.LocalCopy(a.Recv, stage, a.Count)
		}
	})
}

// allgatherLeader and alltoallLeader run Bruck among the leaders on the
// full cluster. Bruck's node-block rotation needs equal node blocks and
// node ids equal to positions, so a survivor table with failures takes
// the direct leader exchange instead — even when whole-node loss left
// the blocks equal, so a re-run's schedule depends only on whether
// anyone died.
func (h *hier) allgatherLeader(r *Rank, a Args) {
	sh := h.sh
	kn := sh.SurvivorsOn(r.Node)
	lead := h.leaderLocal(r.Node, 0)
	nodeBlock := a.Recv + kernel.Addr(int64(sh.Prefix[r.Node])*a.Count)
	full := int64(sh.NewSize) * a.Count
	// Same-kind intra phase: allgather the node block in place, so every
	// member (the leader included) holds it at its world offset.
	h.phase(r, "h_intra", func() {
		if kn > 1 {
			h.intraOn(kn).Run(r.Rank, core.Args{Send: a.Send, Recv: nodeBlock, Count: a.Count, Root: 0})
		} else {
			r.LocalCopy(nodeBlock, a.Send, a.Count)
		}
	})
	if r.ID == lead {
		h.phase(r, "h_net", func() {
			if len(sh.Failed) > 0 {
				h.directAllgather(r, a.Recv, a.Count)
			} else {
				h.netAllgather(r, a.Recv, int64(kn)*a.Count)
			}
		})
	}
	// Fan the completed world buffer out to the node.
	h.phase(r, "h_intra", func() {
		if kn > 1 {
			core.Tuned(core.KindBcast)(r.Rank, core.Args{Send: a.Recv, Recv: a.Recv, Count: full, Root: lead})
		}
	})
}

func (h *hier) alltoallLeader(r *Rank, a Args) {
	sh := h.sh
	kn := sh.SurvivorsOn(r.Node)
	lead := h.leaderLocal(r.Node, 0)
	vec := int64(sh.NewSize) * a.Count
	var stage, mstage kernel.Addr
	if r.ID == lead {
		stage = r.Alloc(int64(kn) * vec)
		mstage = r.Alloc(int64(kn) * vec)
	}
	h.phase(r, "h_intra", func() {
		if kn > 1 {
			core.Tuned(core.KindGather)(r.Rank, core.Args{Send: a.Send, Recv: stage, Count: vec, Root: lead})
		} else {
			r.LocalCopy(stage, a.Send, vec)
		}
	})
	if r.ID == lead {
		h.phase(r, "h_net", func() {
			if len(sh.Failed) > 0 {
				h.directAlltoall(r, stage, mstage, a.Count)
			} else {
				h.netAlltoall(r, stage, mstage, a.Count)
			}
		})
	}
	h.phase(r, "h_intra", func() {
		if kn > 1 {
			core.Tuned(core.KindScatter)(r.Rank, core.Args{Send: mstage, Recv: a.Recv, Count: vec, Root: lead})
		} else {
			r.LocalCopy(a.Recv, mstage, vec)
		}
	})
}

func (h *hier) reduceLeader(r *Rank, a Args) {
	sh := h.sh
	kn := sh.SurvivorsOn(r.Node)
	lead := h.leaderLocal(r.Node, a.Root)
	acc := a.Recv
	if r.ID == lead && sh.NewWorld[r.World] != a.Root {
		acc = r.Alloc(a.Count)
	}
	h.phase(r, "h_intra", func() {
		if kn > 1 {
			h.intraOn(kn).Run(r.Rank, core.Args{Send: a.Send, Recv: acc, Count: a.Count, Root: lead})
		} else {
			r.LocalCopy(acc, a.Send, a.Count)
		}
	})
	if r.ID == lead {
		h.phase(r, "h_net", func() { h.netReduce(r, a.Root, acc, a.Count) })
	}
}

// ---------------------------------------------------------------------
// Shared-leader (MPI+MPI-style) designs: the on-node phase is direct
// CMA traffic against the leader's buffers plus notify tokens — members
// contend on the leader's mm-lock, which is exactly the γ(c) regime the
// intra-node algorithms were designed around.
// ---------------------------------------------------------------------

// notifyMembers posts a token from the node leader to every other
// member of the node.
func (r *Rank) notifyMembers(lead int) {
	for dl := 0; dl < r.cluster.PPN; dl++ {
		if dl != lead {
			r.Notify(dl)
		}
	}
}

// waitMembers collects a token at the node leader from every other
// member of the node.
func (r *Rank) waitMembers(lead int) {
	for dl := 0; dl < r.cluster.PPN; dl++ {
		if dl != lead {
			r.WaitNotify(dl)
		}
	}
}

func (h *hier) bcastShared(r *Rank, a Args) {
	lead := h.leaderLocal(r.Node, a.Root)
	buf := a.Recv
	if r.World == a.Root {
		buf = a.Send
	}
	addr := kernel.Addr(r.Bcast64(lead, int64(buf)))
	if r.ID == lead {
		h.phase(r, "h_net", func() { h.netBcast(r, a.Root, buf, a.Count) })
	}
	h.phase(r, "h_intra", func() {
		if r.ID == lead {
			r.notifyMembers(lead)
			return
		}
		r.WaitNotify(lead)
		r.VMRead(a.Recv, lead, addr, a.Count)
	})
}

func (h *hier) gatherShared(r *Rank, a Args) {
	lead := h.leaderLocal(r.Node, a.Root)
	stage := h.nodeStage(r, lead, a.Root, a.Recv, a.Count)
	addr := kernel.Addr(r.Bcast64(lead, int64(stage)))
	h.phase(r, "h_intra", func() {
		if r.ID == lead {
			r.LocalCopy(stage+kernel.Addr(int64(lead)*a.Count), a.Send, a.Count)
			r.waitMembers(lead)
			return
		}
		r.VMWrite(a.Send, lead, addr+kernel.Addr(int64(r.ID)*a.Count), a.Count)
		r.Notify(lead)
	})
	if r.ID == lead {
		h.phase(r, "h_net", func() { h.netGather(r, a.Root, stage, a.Recv, a.Count, a.Count) })
	}
}

func (h *hier) scatterShared(r *Rank, a Args) {
	lead := h.leaderLocal(r.Node, a.Root)
	stage := h.nodeStage(r, lead, a.Root, a.Send, a.Count)
	addr := kernel.Addr(r.Bcast64(lead, int64(stage)))
	if r.ID == lead {
		h.phase(r, "h_net", func() { h.netScatter(r, a.Root, stage, a.Send, a.Count) })
	}
	h.phase(r, "h_intra", func() {
		if r.ID == lead {
			r.LocalCopy(a.Recv, stage+kernel.Addr(int64(lead)*a.Count), a.Count)
			r.notifyMembers(lead)
			return
		}
		r.WaitNotify(lead)
		r.VMRead(a.Recv, lead, addr+kernel.Addr(int64(r.ID)*a.Count), a.Count)
	})
}

func (h *hier) allgatherShared(r *Rank, a Args) {
	cl := h.cl
	lead := h.leaderLocal(r.Node, 0)
	nodeBytes := int64(cl.PPN) * a.Count
	full := int64(cl.WorldSize()) * a.Count
	addr := kernel.Addr(r.Bcast64(lead, int64(a.Recv))) // leader's world buffer
	h.phase(r, "h_intra", func() {
		if r.ID == lead {
			r.LocalCopy(a.Recv+kernel.Addr(int64(r.World)*a.Count), a.Send, a.Count)
			r.waitMembers(lead)
			return
		}
		r.VMWrite(a.Send, lead, addr+kernel.Addr(int64(r.World)*a.Count), a.Count)
		r.Notify(lead)
	})
	if r.ID == lead {
		h.phase(r, "h_net", func() { h.netAllgather(r, a.Recv, nodeBytes) })
	}
	h.phase(r, "h_intra", func() {
		if r.ID == lead {
			r.notifyMembers(lead)
			return
		}
		r.WaitNotify(lead)
		r.VMRead(a.Recv, lead, addr, full)
	})
}

func (h *hier) alltoallShared(r *Rank, a Args) {
	cl := h.cl
	lead := h.leaderLocal(r.Node, 0)
	vec := int64(cl.WorldSize()) * a.Count
	var stage, mstage kernel.Addr
	if r.ID == lead {
		stage = r.Alloc(int64(cl.PPN) * vec)
		mstage = r.Alloc(int64(cl.PPN) * vec)
	}
	stageAddr := kernel.Addr(r.Bcast64(lead, int64(stage)))
	mstageAddr := kernel.Addr(r.Bcast64(lead, int64(mstage)))
	h.phase(r, "h_intra", func() {
		if r.ID == lead {
			r.LocalCopy(stage+kernel.Addr(int64(lead)*vec), a.Send, vec)
			r.waitMembers(lead)
			return
		}
		r.VMWrite(a.Send, lead, stageAddr+kernel.Addr(int64(r.ID)*vec), vec)
		r.Notify(lead)
	})
	if r.ID == lead {
		h.phase(r, "h_net", func() { h.netAlltoall(r, stage, mstage, a.Count) })
	}
	h.phase(r, "h_intra", func() {
		if r.ID == lead {
			r.LocalCopy(a.Recv, mstage+kernel.Addr(int64(lead)*vec), vec)
			r.notifyMembers(lead)
			return
		}
		r.WaitNotify(lead)
		r.VMRead(a.Recv, lead, mstageAddr+kernel.Addr(int64(r.ID)*vec), vec)
	})
}

func (h *hier) reduceShared(r *Rank, a Args) {
	cl := h.cl
	lead := h.leaderLocal(r.Node, a.Root)
	var slots, acc kernel.Addr
	if r.ID == lead {
		slots = r.Alloc(int64(cl.PPN) * a.Count)
		acc = a.Recv
		if r.World != a.Root {
			acc = r.Alloc(a.Count)
		}
	}
	addr := kernel.Addr(r.Bcast64(lead, int64(slots)))
	h.phase(r, "h_intra", func() {
		if r.ID == lead {
			r.LocalCopy(acc, a.Send, a.Count)
			for dl := 0; dl < cl.PPN; dl++ {
				if dl == lead {
					continue
				}
				r.WaitNotify(dl)
				r.OS.Combine(r.SP, acc, slots+kernel.Addr(int64(dl)*a.Count), a.Count)
			}
			return
		}
		r.VMWrite(a.Send, lead, addr+kernel.Addr(int64(r.ID)*a.Count), a.Count)
		r.Notify(lead)
	})
	if r.ID == lead {
		h.phase(r, "h_net", func() { h.netReduce(r, a.Root, acc, a.Count) })
	}
}

// ---------------------------------------------------------------------
// Flat designs: one world-spanning algorithm with mixed edges — local
// peers through the intra-node transport, remote peers over the fabric.
// ---------------------------------------------------------------------

// xSend sends to a world rank over the right edge type.
func (h *hier) xSend(r *Rank, dst int, addr kernel.Addr, n int64) {
	if h.cl.NodeOf(dst) == r.Node {
		if h.tr == core.TransportShm {
			r.SendShm(h.cl.LocalOf(dst), addr, n)
		} else {
			r.Send(h.cl.LocalOf(dst), addr, n)
		}
		return
	}
	r.NetSend(dst, addr, n)
}

func (h *hier) xRecv(r *Rank, src int, addr kernel.Addr, n int64) {
	if h.cl.NodeOf(src) == r.Node {
		if h.tr == core.TransportShm {
			r.RecvShm(h.cl.LocalOf(src), addr, n)
		} else {
			r.Recv(h.cl.LocalOf(src), addr, n)
		}
		return
	}
	r.NetRecv(src, addr, n)
}

// xSendrecv pairs a send and a receive with independent peers. Network
// sends are buffered (they complete without the peer), so ordering net
// sends first keeps the cyclic exchange patterns of the Bruck ports
// deadlock-free: every exchange cycle that includes a local rendezvous
// edge also crosses a node boundary, where the chain of waiting breaks.
func (h *hier) xSendrecv(r *Rank, dst int, sa kernel.Addr, sn int64, src int, ra kernel.Addr, rn int64) {
	dstLocal := h.cl.NodeOf(dst) == r.Node
	srcLocal := h.cl.NodeOf(src) == r.Node
	switch {
	case dstLocal && srcLocal:
		if h.tr == core.TransportShm {
			r.SendrecvShm(h.cl.LocalOf(dst), sa, sn, h.cl.LocalOf(src), ra, rn)
		} else {
			r.Sendrecv(h.cl.LocalOf(dst), sa, sn, h.cl.LocalOf(src), ra, rn)
		}
	case !dstLocal && !srcLocal:
		r.NetSend(dst, sa, sn)
		r.NetRecv(src, ra, rn)
	case !dstLocal:
		r.NetSend(dst, sa, sn)
		h.xRecv(r, src, ra, rn)
	default:
		h.xSend(r, dst, sa, sn)
		r.NetRecv(src, ra, rn)
	}
}

func (h *hier) flatBcast(r *Rank, a Args) {
	w := h.cl.WorldSize()
	rel := (r.World - a.Root + w) % w
	abs := func(rel int) int { return (rel + a.Root) % w }
	buf := a.Recv
	if rel == 0 {
		buf = a.Send
	}
	binomialBcast(w, rel,
		func(pos int) { h.xRecv(r, abs(pos), buf, a.Count) },
		func(pos int) { h.xSend(r, abs(pos), buf, a.Count) })
}

func (h *hier) flatGather(r *Rank, a Args) {
	w := h.cl.WorldSize()
	if r.World != a.Root {
		h.xSend(r, a.Root, a.Send, a.Count)
		return
	}
	r.LocalCopy(a.Recv+kernel.Addr(int64(r.World)*a.Count), a.Send, a.Count)
	for i := 0; i < w; i++ {
		if i != a.Root {
			h.xRecv(r, i, a.Recv+kernel.Addr(int64(i)*a.Count), a.Count)
		}
	}
}

func (h *hier) flatScatter(r *Rank, a Args) {
	w := h.cl.WorldSize()
	if r.World != a.Root {
		h.xRecv(r, a.Root, a.Recv, a.Count)
		return
	}
	for i := 0; i < w; i++ {
		if i != a.Root {
			h.xSend(r, i, a.Send+kernel.Addr(int64(i)*a.Count), a.Count)
		}
	}
	r.LocalCopy(a.Recv, a.Send+kernel.Addr(int64(r.World)*a.Count), a.Count)
}

func (h *hier) flatAllgather(r *Rank, a Args) {
	w := h.cl.WorldSize()
	if w == 1 {
		r.LocalCopy(a.Recv, a.Send, a.Count)
		return
	}
	r.bruckAllgather(w, r.World, a.Count, a.Send, a.Recv, h.flatExchange(r))
}

// flatExchange is the flat designs' world-rank exchange over mixed
// edges.
func (h *hier) flatExchange(r *Rank) exchange {
	return func(dst int, sa kernel.Addr, sn int64, src int, ra kernel.Addr, rn int64) {
		h.xSendrecv(r, dst, sa, sn, src, ra, rn)
	}
}

func (h *hier) flatAlltoall(r *Rank, a Args) {
	w := h.cl.WorldSize()
	me := r.World
	if w == 1 {
		r.LocalCopy(a.Recv, a.Send, a.Count)
		return
	}
	work := r.Alloc(int64(w) * a.Count)
	// Rotation: work[j] = Send[(j+me) mod w].
	r.packCost(int64(w) * a.Count)
	if h.cl.CopyData {
		for j := 0; j < w; j++ {
			r.movePayload(work+kernel.Addr(int64(j)*a.Count),
				a.Send+kernel.Addr(int64((j+me)%w)*a.Count), a.Count)
		}
	}
	r.bruckSteps(w, me, a.Count, work, h.flatExchange(r))
	// Inverse rotation with reversal: Recv[j] = work[(me-j+w) mod w].
	r.packCost(int64(w) * a.Count)
	if h.cl.CopyData {
		for j := 0; j < w; j++ {
			r.movePayload(a.Recv+kernel.Addr(int64(j)*a.Count),
				work+kernel.Addr(int64((me-j+w)%w)*a.Count), a.Count)
		}
	}
}

func (h *hier) flatReduce(r *Rank, a Args) {
	w := h.cl.WorldSize()
	me := r.World
	rel := (me - a.Root + w) % w
	abs := func(rel int) int { return (rel + a.Root) % w }
	acc := a.Recv
	if me != a.Root {
		acc = r.Alloc(a.Count)
	}
	r.LocalCopy(acc, a.Send, a.Count)
	binomialReduce(r, w, rel, acc, a.Count,
		func(pos int, buf kernel.Addr) { h.xRecv(r, abs(pos), buf, a.Count) },
		func(pos int, buf kernel.Addr) { h.xSend(r, abs(pos), buf, a.Count) })
}
