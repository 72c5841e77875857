package cluster

import (
	"camc/internal/liveness"
	"camc/internal/sim"
	"camc/internal/trace"
)

// probeBytes is the size of one liveness gossip probe (a compact
// epoch/death summary — 8 bytes each way is enough for the simulated
// cost model; the boards themselves live in simulator memory).
const probeBytes = 8

// WorldLiveness extends the single-node liveness machinery across the
// fabric. Every node holds a world-sized view board (slots are world
// ranks): intra-node heartbeats and death marks stay cheap — they are
// plain board writes, exactly as on a single node — while remote-node
// state crosses the fabric only through explicit gossip probes that pay
// per-link contention-aware (γ_net) costs. Detection latency is
// therefore itself contention-aware: a probe crossing a congested
// switch takes longer, and the agreement instant moves with it.
//
// The node views are wired into both transports: the shm transport
// beats/marks through world-rank board IDs (mpi.Comm.SetBoardIDs), so a
// remote death merged into a node's view revokes that node's intra
// waits exactly like a local death; the fabric's guarded receives poll
// the receiver's view and gossip-probe the sender's node after a silent
// detector deadline. Deaths propagate along wait-for edges one probe
// epoch per hop, which is what ends every survivor's wait in bounded
// virtual time.
type WorldLiveness struct {
	cl    *Cluster
	cfg   liveness.Config
	world int

	// views[n] is node n's world-sized liveness board.
	views []*liveness.Board

	// roundOf numbers each world rank's agreement rounds (lockstep,
	// like mpi.Rank.agreeRound); rounds holds the shared round state,
	// modelled as residing on node 0 — remote ranks pay a gossip RTT to
	// post into it and to read the published verdict back.
	roundOf []int
	rounds  []*worldRound

	// barCount/barGen implement the survivor barrier used between
	// recovery phases (central counter, Poll-quantum polling).
	barCount, barGen int

	// refreshed marks nodes whose view was replaced by a fresh all-alive
	// board during WorldShrink (once per node, by its first survivor).
	refreshed []bool

	// shrunk caches the survivor table the first WorldShrink caller
	// builds; every survivor adopts the same table.
	shrunk *Shrunk

	// Recovery-phase instants for the x12 latency report: the shrink
	// window closes when the last survivor holds a rebuilt communicator;
	// the election window spans first entry to last exit. deathAt
	// preserves the earliest death instant across the view refresh.
	shrinkEnd            sim.Time
	electStart, electEnd sim.Time
	electSeen            bool
	deathAt              sim.Time
	deathSeen            bool
}

// worldRound is one world-level agreement epoch (the cluster analogue
// of liveness.roundState).
type worldRound struct {
	posted    []bool
	suspects  [][]int
	agreed    []int
	published bool
	agreedAt  sim.Time
}

// newWorldLiveness builds the per-node world views, installs them as
// the nodes' liveness boards (with world-rank board IDs on every node
// communicator), and arms the fabric's guarded receive path.
func newWorldLiveness(cl *Cluster, cfg liveness.Config) *WorldLiveness {
	world := cl.WorldSize()
	wl := &WorldLiveness{
		cl:        cl,
		world:     world,
		views:     make([]*liveness.Board, cl.NumNodes),
		roundOf:   make([]int, world),
		refreshed: make([]bool, cl.NumNodes),
	}
	for n := 0; n < cl.NumNodes; n++ {
		wl.views[n] = liveness.NewBoard(cl.Sim, world, cfg)
		cl.Nodes[n].Node.SetLiveness(wl.views[n])
		ids := make([]int, cl.PPN)
		for l := 0; l < cl.PPN; l++ {
			ids[l] = n*cl.PPN + l
		}
		cl.Nodes[n].SetBoardIDs(ids)
	}
	wl.cfg = wl.views[0].Config()
	cl.Fabric.live = wl
	return wl
}

// beatWorld publishes world rank w's heartbeat on its own node's view.
func (wl *WorldLiveness) beatWorld(w int) {
	wl.views[w/wl.cl.PPN].Beat(w)
}

// leaseWorld forward-dates world rank w's heartbeat on its own node's
// view over a known-length busy period (see liveness.Board.Lease).
func (wl *WorldLiveness) leaseWorld(w int, until sim.Time) {
	wl.views[w/wl.cl.PPN].Lease(w, until)
}

// FirstDeathAt returns the earliest death instant recorded on any view
// (merged deaths keep their original instants, so this is exact). Views
// replaced during WorldShrink fold their record into a cache first, so
// the instant survives recovery.
func (wl *WorldLiveness) FirstDeathAt() (sim.Time, bool) {
	first, any := wl.deathAt, wl.deathSeen
	for _, v := range wl.views {
		if t, ok := v.FirstDeathAt(); ok && (!any || t < first) {
			first, any = t, true
		}
	}
	return first, any
}

// noteDeaths folds a view's earliest death into the cache; called
// before the view is replaced.
func (wl *WorldLiveness) noteDeaths(v *liveness.Board) {
	if t, ok := v.FirstDeathAt(); ok && (!wl.deathSeen || t < wl.deathAt) {
		wl.deathAt, wl.deathSeen = t, true
	}
}

// AgreedAt returns the publish instant of world agreement round i.
func (wl *WorldLiveness) AgreedAt(i int) sim.Time { return wl.round(i).agreedAt }

// ShrinkEnd returns the instant the last survivor held a rebuilt
// node communicator (end of the world shrink window).
func (wl *WorldLiveness) ShrinkEnd() sim.Time { return wl.shrinkEnd }

// ElectWindow returns the re-election window: first survivor entering
// the election to last survivor leaving it.
func (wl *WorldLiveness) ElectWindow() (start, end sim.Time) {
	return wl.electStart, wl.electEnd
}

func (wl *WorldLiveness) round(i int) *worldRound {
	for len(wl.rounds) <= i {
		wl.rounds = append(wl.rounds, &worldRound{
			posted:   make([]bool, wl.world),
			suspects: make([][]int, wl.world),
		})
	}
	return wl.rounds[i]
}

// probe gossips with another node: one probe message each way over the
// fabric's routed links (paying per-link γ_net like any other flow),
// after which the two views merge bidirectionally — the prober adopts
// the target node's deaths and fresher heartbeats, and vice versa.
// proberW is the probing world rank (it beats per chunk in transit).
func (wl *WorldLiveness) probe(sp *sim.Proc, lane, proberW, targetNode int) {
	f := wl.cl.Fabric
	myNode := proberW / wl.cl.PPN
	if targetNode == myNode {
		return
	}
	if f.rec.Enabled() {
		f.rec.Instant(lane, trace.CatLiveness, "net_probe",
			trace.F("node", float64(targetNode)))
	}
	var buf [maxRouteHops]LinkID
	for _, l := range f.Topo.Route(myNode, targetNode, buf[:0]) {
		f.traverse(sp, lane, proberW, l, probeBytes)
	}
	sp.Sleep(f.PerMsg)
	for _, l := range f.Topo.Route(targetNode, myNode, buf[:0]) {
		f.traverse(sp, lane, proberW, l, probeBytes)
	}
	sp.Sleep(f.PerMsg)
	wl.views[targetNode].Merge(wl.views[myNode])
	wl.views[myNode].Merge(wl.views[targetNode])
}

// guardedRecv is the fabric's deadline-guarded receive: the receiver
// polls its node view in Poll quanta, revokes the wait the moment any
// death is visible (ULFM-style — the message may simply never come
// because its sender aborted the doomed collective), and after a silent
// full deadline gossip-probes the sender's node before judging it: a
// fresh heartbeat re-arms the deadline, a stale one is declared dead.
func (wl *WorldLiveness) guardedRecv(sp *sim.Proc, lane, srcW, dstW int) netMsg {
	f := wl.cl.Fabric
	q := f.queue(srcW, dstW)
	view := wl.views[dstW/wl.cl.PPN]
	deadline := sp.Now() + wl.cfg.Deadline
	for {
		view.Beat(dstW)
		wait := wl.cfg.Poll
		if r := deadline - sp.Now(); r > 0 && r < wait {
			wait = r
		}
		if m, ok := q.RecvTimeout(sp, wait); ok {
			return m
		}
		if view.AnyDead() {
			wl.netFail(lane, dstW, srcW, view)
		}
		if sp.Now() >= deadline {
			wl.probe(sp, lane, dstW, srcW/wl.cl.PPN)
			if view.AnyDead() {
				wl.netFail(lane, dstW, srcW, view)
			}
			if view.Stale(srcW, wl.cfg.Deadline) {
				view.MarkDead(srcW)
				wl.netFail(lane, dstW, srcW, view)
			}
			deadline = sp.Now() + wl.cfg.Deadline // fresh heartbeat: re-arm
		}
	}
}

// netFail aborts the calling rank's fabric wait with the view's current
// failed set (the cluster analogue of shm's liveFail).
func (wl *WorldLiveness) netFail(lane, self, peer int, view *liveness.Board) {
	if rec := wl.cl.Fabric.rec; rec.Enabled() {
		rec.Instant(lane, trace.CatLiveness, "peer_dead_net",
			trace.F("peer", float64(peer)))
	}
	panic(liveness.NewPeerDeadError(view.DeadSet()))
}

// Agree runs one world-level coherent-error agreement round. The round
// state lives on node 0: a remote-node rank pays one gossip RTT to
// carry its post there and one more to read the published verdict back,
// so agreement latency grows with fabric contention exactly like any
// other leader-phase exchange. The first rank that sees every world
// rank posted-or-dead (against its own view) publishes the union of all
// posted suspect sets and its view's death set; everyone else adopts
// it. A rank that stays silent for a full detector deadline has its
// node probed, and is declared dead only if its heartbeat is a full
// deadline stale after the merge.
func (wl *WorldLiveness) Agree(r *Rank, localErr error) error {
	var local []int
	if pd, ok := localErr.(*liveness.PeerDeadError); ok {
		local = pd.Ranks
	} else if localErr != nil {
		return localErr // not a liveness failure: nothing to agree about
	}
	roundNo := wl.roundOf[r.World]
	wl.roundOf[r.World]++
	rd := wl.round(roundNo)
	view := wl.views[r.Node]
	sp := r.SP
	lane := r.Lane()
	rec := r.Tracer()
	span := trace.NoSpan
	if rec != nil {
		span = rec.Begin(lane, trace.CatLiveness, "agree",
			trace.F("round", float64(roundNo)))
	}
	if r.Node != 0 {
		wl.probe(sp, lane, r.World, 0) // carry the post to the coordinator node
	}
	rd.posted[r.World] = true
	rd.suspects[r.World] = append([]int(nil), local...)
	start := sp.Now()
	for {
		view.Beat(r.World)
		if rd.published {
			break
		}
		if wl.allPostedOrDead(rd, view) {
			rd.agreed = wl.union(rd, view)
			rd.published = true
			rd.agreedAt = sp.Now()
			break
		}
		if sp.Now()-start >= wl.cfg.Deadline {
			for w := 0; w < wl.world; w++ {
				if rd.posted[w] || view.Dead(w) {
					continue
				}
				wl.probe(sp, lane, r.World, w/wl.cl.PPN)
				if !rd.posted[w] && !view.Dead(w) && view.Stale(w, wl.cfg.Deadline) {
					view.MarkDead(w)
				}
			}
			start = sp.Now()
			continue
		}
		sp.Sleep(wl.cfg.Poll)
	}
	if r.Node != 0 {
		wl.probe(sp, lane, r.World, 0) // read the published verdict back
	}
	set := append([]int(nil), rd.agreed...)
	if rec != nil {
		rec.End(span, trace.F("failed", float64(len(set))))
	}
	if len(set) == 0 {
		return nil
	}
	return liveness.NewPeerDeadError(set)
}

func (wl *WorldLiveness) allPostedOrDead(rd *worldRound, view *liveness.Board) bool {
	for w := 0; w < wl.world; w++ {
		if !rd.posted[w] && !view.Dead(w) {
			return false
		}
	}
	return true
}

// union folds every posted suspect set and the publisher view's deaths
// into one sorted failed-rank set (world numbering).
func (wl *WorldLiveness) union(rd *worldRound, view *liveness.Board) []int {
	in := make([]bool, wl.world)
	for _, w := range view.DeadSet() {
		in[w] = true
	}
	for w := 0; w < wl.world; w++ {
		for _, s := range rd.suspects[w] {
			in[s] = true
		}
	}
	set := []int{}
	for w, d := range in {
		if d {
			set = append(set, w)
		}
	}
	return set
}

// svBarrier is the survivor barrier between recovery phases: a central
// generation counter every survivor increments, with Poll-quantum
// polling (and heartbeats) while waiting for the last one.
func (wl *WorldLiveness) svBarrier(sp *sim.Proc, w, parties int) {
	gen := wl.barGen
	wl.barCount++
	if wl.barCount == parties {
		wl.barCount = 0
		wl.barGen++
		return
	}
	for wl.barGen == gen {
		wl.beatWorld(w)
		sp.Sleep(wl.cfg.Poll)
	}
}
