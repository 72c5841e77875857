package cluster

import (
	"fmt"
	"sort"
	"sync"

	"camc/internal/sim"
	"camc/internal/trace"
)

// The fabric calibration: an EDR/Omni-Path class network with 1.5 us
// one-way base latency over 100 Gbit (12.5 GB/s) links.
const (
	netAlpha  = 1.5 / 2      // per-link propagation latency, us (half the one-way latency)
	netBeta   = 1e6 / 12.5e9 // per-byte serialization time at full link rate, us
	netPerMsg = 2*1.5 + 1    // receiver-side matching/completion cost per message, us (rendezvous RTT + matching)
	// gNet is the contention coefficient: gammaNet(c) = c·(1 + gNet·(c−1)),
	// the super-linear arbitration overhead switches exhibit under incast
	// on top of fair bandwidth sharing (γ = c).
	gNet       = 0.05
	chunkBytes = 256 << 10 // per-chunk contention resample granularity
)

// Fabric is the simulated interconnect: a topology of directed links,
// each with per-hop latency netAlpha and per-byte time netBeta, plus a
// switch-contention factor gammaNet(c) that inflates a flow's per-byte
// cost with the number of flows concurrently inside the same link —
// the network analogue of the paper's mm-lock γ(c). The sender pushes a
// message through its route link by link in chunkBytes chunks,
// resampling the contention factor at every chunk boundary exactly like
// the kernel's per-chunk γ sampling; the receiver pays the matching and
// final-drain cost, serialized per node.
type Fabric struct {
	Topo Topology

	sim      *sim.Simulation
	copyData bool

	// queues holds the per-(src world rank, dst world rank) message
	// channels — flows match like MPI point-to-point, by ordered rank
	// pair, FIFO within a pair. They are created lazily (even a
	// 4096-node job touches a tiny fraction of the W² pairs) and
	// recycled through freeq across runs, so a pooled fabric re-runs
	// without re-allocating its queue storage.
	queues map[int64]*sim.Chan[netMsg]
	freeq  []*sim.Chan[netMsg]
	// ChanAllocs counts sim.Chan constructions over the fabric's
	// lifetime; the pooling regression test pins it across reuse.
	ChanAllocs int

	// sendBusy/recvBusy serialize each node's NIC inject and drain sides.
	sendBusy []*sim.Mutex
	recvBusy []*sim.Mutex

	links []linkState
	rec   *trace.Recorder

	// live, when non-nil, makes every fabric receive deadline-guarded
	// against the world liveness views: a receive that starves for a full
	// detector deadline gossip-probes the sender's node over the fabric
	// (paying contention-aware link costs) instead of blocking forever.
	live *WorldLiveness
}

// linkState is one directed link's live contention count and
// conservation/utilization accounting.
type linkState struct {
	active    int   // flows inside the link right now
	maxActive int   // high-water mark of active
	injected  int64 // bytes that entered the link
	delivered int64 // bytes that fully traversed it
	busy      float64
	first     float64 // start of the link's activity window
	last      float64 // end of the link's activity window
	touched   bool
}

type netMsg struct {
	src, dst int // world ranks
	size     int64
	sentAt   float64
	data     []byte // materialized payload, nil on dataless runs
}

// LinkStat is one link's end-of-run accounting, consumed by the flow
// conservation and utilization checks.
type LinkStat struct {
	Link      LinkID
	Name      string
	Injected  int64
	Delivered int64
	MaxActive int
	Busy      float64
	First     float64
	Last      float64
}

// LineTime is the time the link's delivered bytes need at full line
// rate.
func (ls LinkStat) LineTime() float64 { return float64(ls.Delivered) * netBeta }

// EdgeSlack is the line-rate time of the chunks that can be in flight
// at the edges of the link's activity window: one per concurrent flow.
func (ls LinkStat) EdgeSlack() float64 {
	return float64(ls.MaxActive) * (float64(chunkBytes) * netBeta)
}

func newFabric(s *sim.Simulation, topo Topology, nodes int, copyData bool) *Fabric {
	f := &Fabric{
		Topo: topo, sim: s, copyData: copyData,
		queues: make(map[int64]*sim.Chan[netMsg]),
		links:  make([]linkState, topo.NumLinks()),
	}
	for i := 0; i < nodes; i++ {
		f.sendBusy = append(f.sendBusy, sim.NewMutex(s))
		f.recvBusy = append(f.recvBusy, sim.NewMutex(s))
	}
	return f
}

// gammaNet returns the contention factor for c concurrent flows through
// one link. It is 1 at c = 1, strictly increasing, and always >= c, so
// a link's aggregate delivery rate never exceeds its line rate — the
// property the utilization invariant checks.
func gammaNet(c int) float64 {
	if c < 1 {
		panic(fmt.Sprintf("cluster: gammaNet(%d)", c))
	}
	return float64(c) * (1 + gNet*float64(c-1))
}

func (f *Fabric) queue(from, to int) *sim.Chan[netMsg] {
	key := int64(from)<<32 | int64(to)
	q, ok := f.queues[key]
	if !ok {
		if n := len(f.freeq); n > 0 {
			q = f.freeq[n-1]
			f.freeq[n-1] = nil
			f.freeq = f.freeq[:n-1]
		} else {
			q = sim.NewChan[netMsg](f.sim, 1<<20)
			f.ChanAllocs++
		}
		f.queues[key] = q
	}
	return q
}

// reset recycles the fabric for another run on the same (reset)
// simulation: queues return to the free list and link accounting
// clears. Only drained queues are reusable; an undrained one means the
// previous run leaked a message, which reset surfaces loudly.
func (f *Fabric) reset() {
	for key, q := range f.queues {
		if q.Len() != 0 {
			panic(fmt.Sprintf("cluster: fabric reset with %d undrained message(s) on queue %d->%d",
				q.Len(), key>>32, key&0xffffffff))
		}
		f.freeq = append(f.freeq, q)
		delete(f.queues, key)
	}
	for i := range f.links {
		f.links[i] = linkState{}
	}
}

// send pushes a message through the fabric: the sender's NIC serializes
// concurrent injections and pays the full-message serialization time,
// then the sender walks the route link by link (cut-through from the
// sender's perspective), paying per-chunk contention-inflated
// serialization on each. Concurrent flows into one node therefore
// genuinely overlap on its down-link, where gammaNet turns incast into
// the super-linear slowdown the paper measures on the mm-lock. The
// completed message lands in a buffered queue, so send never blocks on
// the receiver.
func (f *Fabric) send(sp *sim.Proc, lane, fromW, toW, fromNode, toNode int, size int64, data []byte, routeBuf []LinkID) {
	var span trace.SpanID
	if f.rec.Enabled() {
		span = f.rec.Begin(lane, trace.CatNet, "net_send",
			trace.F("dst", float64(toW)), trace.F("bytes", float64(size)))
	}
	f.beat(fromW)
	f.sendBusy[fromNode].Lock(sp)
	f.lease(fromW, sp.Now()+float64(size)*netBeta)
	sp.Sleep(float64(size) * netBeta)
	f.sendBusy[fromNode].Unlock()
	for _, l := range f.Topo.Route(fromNode, toNode, routeBuf[:0]) {
		f.traverse(sp, lane, fromW, l, size)
	}
	f.queue(fromW, toW).Send(sp, netMsg{src: fromW, dst: toW, size: size, sentAt: sp.Now(), data: data})
	if f.rec.Enabled() {
		f.rec.End(span)
	}
}

// recv drains one delivered message from the (fromW -> toW) flow: the
// receiving NIC's matching cost plus the final drain, serialized per
// receiving node. Returns the payload on materialized runs.
func (f *Fabric) recv(sp *sim.Proc, lane, fromLane, fromW, toW, toNode int, size int64) []byte {
	waitStart := sp.Now()
	var m netMsg
	if f.live != nil {
		m = f.live.guardedRecv(sp, lane, fromW, toW)
	} else {
		m = f.queue(fromW, toW).Recv(sp)
	}
	if m.size != size {
		panic(fmt.Sprintf("cluster: size mismatch on %d->%d: got %d want %d", fromW, toW, m.size, size))
	}
	var span trace.SpanID
	if f.rec.Enabled() {
		span = f.rec.Begin(lane, trace.CatNet, "net_recv",
			trace.F("src", float64(fromW)), trace.F("bytes", float64(size)))
	}
	f.recvBusy[toNode].Lock(sp)
	f.lease(toW, sp.Now()+netPerMsg+float64(size)*netBeta)
	sp.Sleep(netPerMsg + float64(size)*netBeta)
	f.recvBusy[toNode].Unlock()
	if f.rec.Enabled() {
		f.rec.End(span)
		f.rec.Edge(fromLane, lane, trace.CatNet, "net_msg", m.sentAt, m.sentAt, waitStart, sp.Now(),
			trace.F("bytes", float64(size)))
	}
	return m.data
}

// beat publishes world rank w's heartbeat on its node's liveness view
// (no-op without liveness). Senders beat per chunk so a rank busy
// pushing a large message through a contended link is never mistaken
// for a dead one by a deadline-expired waiter elsewhere.
func (f *Fabric) beat(w int) {
	if f.live != nil {
		f.live.beatWorld(w)
	}
}

// lease publishes a forward-dated heartbeat covering a known-length
// busy period (no-op without liveness). A single contention-inflated
// chunk can sleep longer than the detector deadline on a hot incast
// link; without the lease, a deadline-expired waiter elsewhere would
// judge the mid-transfer sender stale and poison the agreed failed set
// with a live rank.
func (f *Fabric) lease(w int, until sim.Time) {
	if f.live != nil {
		f.live.leaseWorld(w, until)
	}
}

// traverse moves size bytes across one link in chunks, resampling the
// concurrent-flow count — and with it gammaNet — at every chunk
// boundary, the same idiom the kernel uses for per-chunk mm-lock γ(c).
// srcW is the sending world rank (for heartbeats; the trace lane alone
// cannot identify it on untraced runs).
func (f *Fabric) traverse(sp *sim.Proc, lane, srcW int, l LinkID, size int64) {
	sp.Sleep(netAlpha)
	ls := &f.links[l]
	now := sp.Now()
	if !ls.touched {
		ls.touched = true
		ls.first = now
	}
	first := true
	for off := int64(0); off < size; off += chunkBytes {
		f.beat(srcW)
		n := int64(chunkBytes)
		if size-off < n {
			n = size - off
		}
		ls.active++
		if ls.active > ls.maxActive {
			ls.maxActive = ls.active
		}
		g := gammaNet(ls.active)
		if first && f.rec.Enabled() {
			f.rec.Instant(lane, trace.CatNet, "net_link",
				trace.F("link", float64(l)), trace.F("c", float64(ls.active)), trace.F("gamma", g))
			first = false
		}
		ls.injected += n
		t := float64(n) * netBeta * g
		f.lease(srcW, sp.Now()+t)
		sp.Sleep(t)
		ls.active--
		ls.delivered += n
		ls.busy += t
	}
	if end := sp.Now(); end > ls.last {
		ls.last = end
	}
}

// LinkStats returns the accounting of every link the run touched, in
// link order.
func (f *Fabric) LinkStats() []LinkStat {
	var out []LinkStat
	for i := range f.links {
		ls := &f.links[i]
		if !ls.touched {
			continue
		}
		out = append(out, LinkStat{
			Link: LinkID(i), Name: f.Topo.LinkName(LinkID(i)),
			Injected: ls.injected, Delivered: ls.delivered,
			MaxActive: ls.maxActive, Busy: ls.busy, First: ls.first, Last: ls.last,
		})
	}
	return out
}

// drainTo discards every already-delivered message addressed to world
// rank me, paying the per-message matching cost for each. Survivors run
// it after world agreement and before the re-run: the aborted attempt
// may have left messages from now-dead (or now-aborted) senders in the
// rank's flow queues, and the per-pair FIFOs must be empty before the
// re-run's traffic starts or stale payloads would match first. Queues
// are visited in sorted key order so the drain is deterministic.
func (f *Fabric) drainTo(sp *sim.Proc, me int) int {
	var keys []int64
	for key, q := range f.queues {
		if int(key&0xffffffff) == me && q.Len() > 0 {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	drained := 0
	for _, key := range keys {
		q := f.queues[key]
		for {
			if _, ok := q.TryRecv(); !ok {
				break
			}
			sp.Sleep(netPerMsg)
			drained++
		}
	}
	return drained
}

// Residue is one flow's undrained leftover after a killed run: messages
// that were delivered into the (From, To) queue but never received.
// After a correct recovery every residue targets a dead rank — the
// shrink-residue invariant checks exactly that.
type Residue struct {
	From, To int
	Msgs     int
	Bytes    int64
}

// Residue destructively drains every remaining queue (in sorted key
// order) and reports what was left. A cluster that went through a kill
// is tainted and never pooled, so consuming the queues here is safe;
// callers use the report to verify that only dead ranks' flows leaked.
func (f *Fabric) Residue() []Residue {
	var keys []int64
	for key, q := range f.queues {
		if q.Len() > 0 {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []Residue
	for _, key := range keys {
		q := f.queues[key]
		r := Residue{From: int(key >> 32), To: int(key & 0xffffffff)}
		for {
			m, ok := q.TryRecv()
			if !ok {
				break
			}
			r.Msgs++
			r.Bytes += m.size
		}
		out = append(out, r)
	}
	return out
}

// fabKey identifies a poolable (simulation, fabric) shape.
type fabKey struct {
	topo         string
	nodes, radix int
	copyData     bool
}

// pooled is one recyclable simulation+fabric pair. The two travel
// together: the fabric's channels and mutexes are bound to their
// simulation, so neither can be re-homed.
type pooled struct {
	sim *sim.Simulation
	fab *Fabric
}

var (
	fabricPoolMu sync.Mutex
	fabricPool   = map[fabKey][]pooled{}
)

const fabricPoolCap = 4

func fabricPoolGet(k fabKey) (pooled, bool) {
	fabricPoolMu.Lock()
	defer fabricPoolMu.Unlock()
	entries := fabricPool[k]
	if len(entries) == 0 {
		return pooled{}, false
	}
	e := entries[len(entries)-1]
	fabricPool[k] = entries[:len(entries)-1]
	return e, true
}

func fabricPoolPut(k fabKey, e pooled) {
	fabricPoolMu.Lock()
	defer fabricPoolMu.Unlock()
	if len(fabricPool[k]) < fabricPoolCap {
		fabricPool[k] = append(fabricPool[k], e)
	}
}
