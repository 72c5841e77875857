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

	run func(r *Rank, a Args)
}

// Lookup resolves a cluster collective. intraSpec is the same-kind
// intra-node algorithm spec (core spec grammar, "" = tuned), re-planned
// for the cluster's PPN exactly like post-shrink Replan clamps tuning
// parameters to the communicator size. The flat designs and the kinds
// whose hierarchical decomposition has no same-kind on-node phase
// (alltoall) validate the spec but do not run it.
func Lookup(cl *Cluster, kind core.Kind, design Design, intraSpec string) (Coll, error) {
	if intraSpec == "" {
		intraSpec = "tuned"
	}
	intra, err := core.Replan(kind, intraSpec, cl.PPN)
	if err != nil {
		return Coll{}, err
	}
	h := &hier{cl: cl, intra: intra}
	impl := design
	if design == DesignFlatShm {
		h.tr = core.TransportShm
		impl = DesignFlat
	}
	type key struct {
		k core.Kind
		d Design
	}
	impls := map[key]func(*Rank, Args){
		{core.KindBcast, DesignFlat}:       h.flatBcast,
		{core.KindBcast, DesignLeader}:     h.bcastLeader,
		{core.KindBcast, DesignShared}:     h.bcastShared,
		{core.KindGather, DesignFlat}:      h.flatGather,
		{core.KindGather, DesignLeader}:    h.gatherLeader,
		{core.KindGather, DesignShared}:    h.gatherShared,
		{core.KindScatter, DesignFlat}:     h.flatScatter,
		{core.KindScatter, DesignLeader}:   h.scatterLeader,
		{core.KindScatter, DesignShared}:   h.scatterShared,
		{core.KindAllgather, DesignFlat}:   h.flatAllgather,
		{core.KindAllgather, DesignLeader}: h.allgatherLeader,
		{core.KindAllgather, DesignShared}: h.allgatherShared,
		{core.KindAlltoall, DesignFlat}:    h.flatAlltoall,
		{core.KindAlltoall, DesignLeader}:  h.alltoallLeader,
		{core.KindAlltoall, DesignShared}:  h.alltoallShared,
		{core.KindReduce, DesignFlat}:      h.flatReduce,
		{core.KindReduce, DesignLeader}:    h.reduceLeader,
		{core.KindReduce, DesignShared}:    h.reduceShared,
	}
	run, ok := impls[key{kind, impl}]
	if !ok {
		return Coll{}, fmt.Errorf("cluster: no %q implementation of %s (designs: %v)", design, kind, Designs())
	}
	name := string(design)
	if impl != DesignFlat {
		name += "/" + intra.Name
	}
	return Coll{Kind: kind, Design: design, Name: name, run: run}, nil
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
	c.run(r, a)
	if rec.Enabled() {
		rec.End(span)
	}
}

// hier carries the resolved pieces a collective family closes over.
type hier struct {
	cl    *Cluster
	intra core.Algorithm
	// tr selects the intra-node transport of the flat edges: pt2pt
	// (kernel-assisted rendezvous) for DesignFlat, shm (two-copy) for
	// DesignFlatShm.
	tr core.Transport
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

// leaderLocal returns the node-local leader rank on a node: the world
// root leads its own node (so the root's buffers are used in place),
// local rank 0 leads everywhere else. Non-rooted kinds pass root 0.
func (h *hier) leaderLocal(node, root int) int {
	if h.cl.NodeOf(root) == node {
		return h.cl.LocalOf(root)
	}
	return 0
}

// leaderWorld is the world rank of a node's leader.
func (h *hier) leaderWorld(node, root int) int {
	return node*h.cl.PPN + h.leaderLocal(node, root)
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

// ---------------------------------------------------------------------
// Node-level (leader) algorithms over the fabric.
// ---------------------------------------------------------------------

// netBcast is a binomial broadcast among node leaders, rooted at the
// root's node, safe for any node count.
func (h *hier) netBcast(r *Rank, root int, buf kernel.Addr, size int64) {
	n := h.cl.NumNodes
	if n == 1 {
		return
	}
	rootNode := h.cl.NodeOf(root)
	rel := (r.Node - rootNode + n) % n
	abs := func(rel int) int { return (rel + rootNode) % n }
	if rel != 0 {
		parent := rel - lowbit(rel)
		r.NetRecv(h.leaderWorld(abs(parent), root), buf, size)
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
			r.NetSend(h.leaderWorld(abs(child), root), buf, size)
		}
	}
}

// netReduce is the binomial reverse: leaders combine child accumulators
// up the tree; the root's node ends with the global result in acc.
func (h *hier) netReduce(r *Rank, root int, acc kernel.Addr, size int64) {
	n := h.cl.NumNodes
	if n == 1 {
		return
	}
	rootNode := h.cl.NodeOf(root)
	rel := (r.Node - rootNode + n) % n
	abs := func(rel int) int { return (rel + rootNode) % n }
	var scratch kernel.Addr
	haveScratch := false
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			r.NetSend(h.leaderWorld(abs(rel-mask), root), acc, size)
			return
		}
		if peer := rel + mask; peer < n {
			if !haveScratch {
				scratch = r.Alloc(size)
				haveScratch = true
			}
			r.NetRecv(h.leaderWorld(abs(peer), root), scratch, size)
			r.OS.Combine(r.SP, acc, scratch, size)
		}
	}
}

// netGather ships each non-root leader's size-byte node block (stage)
// straight to the root, which lands node n's block at dst + n*stride.
// The root drains O(nodes) flows — the incast the fabric's γ_net makes
// expensive, but still a factor PPN fewer flows than a flat direct
// gather.
func (h *hier) netGather(r *Rank, root int, stage, dst kernel.Addr, stride, size int64) {
	rootNode := h.cl.NodeOf(root)
	if r.Node != rootNode {
		r.NetSend(root, stage, size)
		return
	}
	for n := 0; n < h.cl.NumNodes; n++ {
		if n == rootNode {
			continue
		}
		r.NetRecv(h.leaderWorld(n, root), dst+kernel.Addr(int64(n)*stride), size)
	}
}

// netScatter is the reverse: the root pushes node block n (at
// src + n*nodeBytes) to node n's leader.
func (h *hier) netScatter(r *Rank, root int, stage, src kernel.Addr, nodeBytes int64) {
	rootNode := h.cl.NodeOf(root)
	if r.Node != rootNode {
		r.NetRecv(root, stage, nodeBytes)
		return
	}
	for n := 0; n < h.cl.NumNodes; n++ {
		if n == rootNode {
			continue
		}
		r.NetSend(h.leaderWorld(n, root), src+kernel.Addr(int64(n)*nodeBytes), nodeBytes)
	}
}

// netAllgather runs Bruck's allgather among leaders at node-block
// granularity: recv must already hold the caller's node block at
// offset node*nodeBytes, and ends with every node block in place.
func (h *hier) netAllgather(r *Rank, recv kernel.Addr, nodeBytes int64) {
	n, me := h.cl.NumNodes, r.Node
	if n == 1 {
		return
	}
	work := r.Alloc(int64(n) * nodeBytes)
	r.LocalCopy(work, recv+kernel.Addr(int64(me)*nodeBytes), nodeBytes)
	for filled := 1; filled < n; {
		cnt := filled
		if n-filled < cnt {
			cnt = n - filled
		}
		sz := int64(cnt) * nodeBytes
		r.NetSend(h.leaderWorld((me-filled+n)%n, 0), work, sz)
		r.NetRecv(h.leaderWorld((me+filled)%n, 0), work+kernel.Addr(int64(filled)*nodeBytes), sz)
		filled += cnt
	}
	// Rotate back into world order: recv[(me+i) mod n] = work[i].
	r.packCost(int64(n) * nodeBytes)
	if h.cl.CopyData {
		for i := 0; i < n; i++ {
			r.movePayload(recv+kernel.Addr(int64((me+i)%n)*nodeBytes),
				work+kernel.Addr(int64(i)*nodeBytes), nodeBytes)
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
	stageOut := r.Alloc(int64((n+1)/2) * bundle)
	stageIn := r.Alloc(int64((n+1)/2) * bundle)
	for pow := 1; pow < n; pow <<= 1 {
		nsel := selCount(n, pow)
		r.packCost(nsel * bundle)
		if cl.CopyData {
			u := int64(0)
			for j := 0; j < n; j++ {
				if j&pow != 0 {
					r.movePayload(stageOut+kernel.Addr(u*bundle), bwork+kernel.Addr(int64(j)*bundle), bundle)
					u++
				}
			}
		}
		r.NetSend(h.leaderWorld((me+pow)%n, 0), stageOut, nsel*bundle)
		r.NetRecv(h.leaderWorld((me-pow+n)%n, 0), stageIn, nsel*bundle)
		r.packCost(nsel * bundle)
		if cl.CopyData {
			u := int64(0)
			for j := 0; j < n; j++ {
				if j&pow != 0 {
					r.movePayload(bwork+kernel.Addr(int64(j)*bundle), stageIn+kernel.Addr(u*bundle), bundle)
					u++
				}
			}
		}
	}
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
	lead := h.leaderLocal(r.Node, a.Root)
	buf := a.Recv
	if r.World == a.Root {
		buf = a.Send
	}
	if r.ID == lead {
		h.phase(r, "h_net", func() { h.netBcast(r, a.Root, buf, a.Count) })
	}
	h.phase(r, "h_intra", func() {
		h.intra.Run(r.Rank, core.Args{Send: buf, Recv: a.Recv, Count: a.Count, Root: lead})
	})
}

func (h *hier) gatherLeader(r *Rank, a Args) {
	cl := h.cl
	lead := h.leaderLocal(r.Node, a.Root)
	nodeBytes := int64(cl.PPN) * a.Count
	stage := a.Recv // non-leaders: unused by the intra root
	if r.ID == lead {
		if r.Node == cl.NodeOf(a.Root) {
			stage = a.Recv + kernel.Addr(int64(r.Node)*nodeBytes)
		} else {
			stage = r.Alloc(nodeBytes)
		}
	}
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
		seg := kernel.Addr(int64(cl.PPN) * off)
		h.phase(r, "h_intra", func() {
			h.intra.Run(r.Rank, core.Args{Send: a.Send + kernel.Addr(off), Recv: stage + seg, Count: n, Root: lead})
		})
		if r.ID == lead {
			h.phase(r, "h_net", func() { h.netGather(r, a.Root, stage+seg, a.Recv+seg, nodeBytes, int64(cl.PPN)*n) })
		}
	}
}

func (h *hier) scatterLeader(r *Rank, a Args) {
	cl := h.cl
	lead := h.leaderLocal(r.Node, a.Root)
	nodeBytes := int64(cl.PPN) * a.Count
	stage := a.Send // non-leaders: unused by the intra root
	if r.ID == lead {
		if r.Node == cl.NodeOf(a.Root) {
			stage = a.Send + kernel.Addr(int64(r.Node)*nodeBytes)
		} else {
			stage = r.Alloc(nodeBytes)
		}
	}
	if r.ID == lead {
		h.phase(r, "h_net", func() { h.netScatter(r, a.Root, stage, a.Send, nodeBytes) })
	}
	h.phase(r, "h_intra", func() {
		h.intra.Run(r.Rank, core.Args{Send: stage, Recv: a.Recv, Count: a.Count, Root: lead})
	})
}

func (h *hier) allgatherLeader(r *Rank, a Args) {
	cl := h.cl
	lead := h.leaderLocal(r.Node, 0)
	nodeBytes := int64(cl.PPN) * a.Count
	full := int64(cl.WorldSize()) * a.Count
	// Same-kind intra phase: allgather the node block in place, so every
	// member (the leader included) holds it at its world offset.
	h.phase(r, "h_intra", func() {
		h.intra.Run(r.Rank, core.Args{
			Send: a.Send, Recv: a.Recv + kernel.Addr(int64(r.Node)*nodeBytes),
			Count: a.Count, Root: 0,
		})
	})
	if r.ID == lead {
		h.phase(r, "h_net", func() { h.netAllgather(r, a.Recv, nodeBytes) })
	}
	// Fan the completed world buffer out to the node.
	h.phase(r, "h_intra", func() {
		core.TunedBcast(r.Rank, core.Args{Send: a.Recv, Recv: a.Recv, Count: full, Root: lead})
	})
}

func (h *hier) alltoallLeader(r *Rank, a Args) {
	cl := h.cl
	lead := h.leaderLocal(r.Node, 0)
	vec := int64(cl.WorldSize()) * a.Count
	var stage, mstage kernel.Addr
	if r.ID == lead {
		stage = r.Alloc(int64(cl.PPN) * vec)
		mstage = r.Alloc(int64(cl.PPN) * vec)
	}
	h.phase(r, "h_intra", func() {
		core.TunedGather(r.Rank, core.Args{Send: a.Send, Recv: stage, Count: vec, Root: lead})
	})
	if r.ID == lead {
		h.phase(r, "h_net", func() { h.netAlltoall(r, stage, mstage, a.Count) })
	}
	h.phase(r, "h_intra", func() {
		core.TunedScatter(r.Rank, core.Args{Send: mstage, Recv: a.Recv, Count: vec, Root: lead})
	})
}

func (h *hier) reduceLeader(r *Rank, a Args) {
	lead := h.leaderLocal(r.Node, a.Root)
	acc := a.Recv
	if r.ID == lead && r.World != a.Root {
		acc = r.Alloc(a.Count)
	}
	h.phase(r, "h_intra", func() {
		h.intra.Run(r.Rank, core.Args{Send: a.Send, Recv: acc, Count: a.Count, Root: lead})
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
			for dl := 0; dl < h.cl.PPN; dl++ {
				if dl != lead {
					r.Notify(dl)
				}
			}
			return
		}
		r.WaitNotify(lead)
		r.VMRead(a.Recv, lead, addr, a.Count)
	})
}

func (h *hier) gatherShared(r *Rank, a Args) {
	cl := h.cl
	lead := h.leaderLocal(r.Node, a.Root)
	nodeBytes := int64(cl.PPN) * a.Count
	var stage kernel.Addr
	if r.ID == lead {
		if r.Node == cl.NodeOf(a.Root) {
			stage = a.Recv + kernel.Addr(int64(r.Node)*nodeBytes)
		} else {
			stage = r.Alloc(nodeBytes)
		}
	}
	addr := kernel.Addr(r.Bcast64(lead, int64(stage)))
	h.phase(r, "h_intra", func() {
		if r.ID == lead {
			r.LocalCopy(stage+kernel.Addr(int64(lead)*a.Count), a.Send, a.Count)
			for dl := 0; dl < cl.PPN; dl++ {
				if dl != lead {
					r.WaitNotify(dl)
				}
			}
			return
		}
		r.VMWrite(a.Send, lead, addr+kernel.Addr(int64(r.ID)*a.Count), a.Count)
		r.Notify(lead)
	})
	if r.ID == lead {
		h.phase(r, "h_net", func() { h.netGather(r, a.Root, stage, a.Recv, nodeBytes, nodeBytes) })
	}
}

func (h *hier) scatterShared(r *Rank, a Args) {
	cl := h.cl
	lead := h.leaderLocal(r.Node, a.Root)
	nodeBytes := int64(cl.PPN) * a.Count
	var stage kernel.Addr
	if r.ID == lead {
		if r.Node == cl.NodeOf(a.Root) {
			stage = a.Send + kernel.Addr(int64(r.Node)*nodeBytes)
		} else {
			stage = r.Alloc(nodeBytes)
		}
	}
	addr := kernel.Addr(r.Bcast64(lead, int64(stage)))
	if r.ID == lead {
		h.phase(r, "h_net", func() { h.netScatter(r, a.Root, stage, a.Send, nodeBytes) })
	}
	h.phase(r, "h_intra", func() {
		if r.ID == lead {
			r.LocalCopy(a.Recv, stage+kernel.Addr(int64(lead)*a.Count), a.Count)
			for dl := 0; dl < cl.PPN; dl++ {
				if dl != lead {
					r.Notify(dl)
				}
			}
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
			for dl := 0; dl < cl.PPN; dl++ {
				if dl != lead {
					r.WaitNotify(dl)
				}
			}
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
			for dl := 0; dl < cl.PPN; dl++ {
				if dl != lead {
					r.Notify(dl)
				}
			}
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
			for dl := 0; dl < cl.PPN; dl++ {
				if dl != lead {
					r.WaitNotify(dl)
				}
			}
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
			for dl := 0; dl < cl.PPN; dl++ {
				if dl != lead {
					r.Notify(dl)
				}
			}
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
	me := r.World
	rel := (me - a.Root + w) % w
	abs := func(rel int) int { return (rel + a.Root) % w }
	buf := a.Recv
	if rel == 0 {
		buf = a.Send
	}
	if rel != 0 {
		h.xRecv(r, abs(rel-lowbit(rel)), buf, a.Count)
	}
	top := lowbit(rel)
	if rel == 0 {
		top = 1
		for top < w {
			top <<= 1
		}
	}
	for mask := top >> 1; mask >= 1; mask >>= 1 {
		if child := rel + mask; child < w {
			h.xSend(r, abs(child), buf, a.Count)
		}
	}
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
	me := r.World
	if w == 1 {
		r.LocalCopy(a.Recv, a.Send, a.Count)
		return
	}
	work := r.Alloc(int64(w) * a.Count)
	r.LocalCopy(work, a.Send, a.Count)
	for filled := 1; filled < w; {
		cnt := filled
		if w-filled < cnt {
			cnt = w - filled
		}
		sz := int64(cnt) * a.Count
		h.xSendrecv(r, (me-filled+w)%w, work, sz,
			(me+filled)%w, work+kernel.Addr(int64(filled)*a.Count), sz)
		filled += cnt
	}
	r.packCost(int64(w) * a.Count)
	if h.cl.CopyData {
		for i := 0; i < w; i++ {
			r.movePayload(a.Recv+kernel.Addr(int64((me+i)%w)*a.Count),
				work+kernel.Addr(int64(i)*a.Count), a.Count)
		}
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
	stageOut := r.Alloc(int64((w+1)/2) * a.Count)
	stageIn := r.Alloc(int64((w+1)/2) * a.Count)
	// Rotation: work[j] = Send[(j+me) mod w].
	r.packCost(int64(w) * a.Count)
	if h.cl.CopyData {
		for j := 0; j < w; j++ {
			r.movePayload(work+kernel.Addr(int64(j)*a.Count),
				a.Send+kernel.Addr(int64((j+me)%w)*a.Count), a.Count)
		}
	}
	for pow := 1; pow < w; pow <<= 1 {
		nsel := selCount(w, pow)
		r.packCost(nsel * a.Count)
		if h.cl.CopyData {
			u := int64(0)
			for j := 0; j < w; j++ {
				if j&pow != 0 {
					r.movePayload(stageOut+kernel.Addr(u*a.Count), work+kernel.Addr(int64(j)*a.Count), a.Count)
					u++
				}
			}
		}
		h.xSendrecv(r, (me+pow)%w, stageOut, nsel*a.Count,
			(me-pow+w)%w, stageIn, nsel*a.Count)
		r.packCost(nsel * a.Count)
		if h.cl.CopyData {
			u := int64(0)
			for j := 0; j < w; j++ {
				if j&pow != 0 {
					r.movePayload(work+kernel.Addr(int64(j)*a.Count), stageIn+kernel.Addr(u*a.Count), a.Count)
					u++
				}
			}
		}
	}
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
	var scratch kernel.Addr
	haveScratch := false
	for mask := 1; mask < w; mask <<= 1 {
		if rel&mask != 0 {
			h.xSend(r, abs(rel-mask), acc, a.Count)
			return
		}
		if peer := rel + mask; peer < w {
			if !haveScratch {
				scratch = r.Alloc(a.Count)
				haveScratch = true
			}
			h.xRecv(r, abs(peer), scratch, a.Count)
			r.OS.Combine(r.SP, acc, scratch, a.Count)
		}
	}
}
