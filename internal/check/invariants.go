package check

import (
	"fmt"
	"math"

	"camc/internal/core"
	"camc/internal/trace"
)

// Violation is one invariant failure with enough context to debug it.
type Violation struct {
	Invariant string // registry name
	Detail    string
}

func (v Violation) Error() string { return v.Invariant + ": " + v.Detail }

// Invariant is one machine-checked property of a traced execution.
type Invariant struct {
	Name string
	// Doc is a one-line statement of the property, surfaced by
	// camc-fuzz -list-invariants and the docs.
	Doc   string
	Check func(r *RunResult) []Violation
}

// Invariants returns the registry, in evaluation order.
func Invariants() []Invariant {
	return []Invariant{
		{"clock-monotone", "virtual time never runs backwards: non-edge events are recorded in non-decreasing Start order, spans close at End >= Start", checkClockMonotone},
		{"span-nesting", "per-lane spans are well-formed: every span closes and spans on one lane strictly nest", checkSpanNesting},
		{"lock-balance", "per (mm-owner, holder) pair, mm-lock chunk acquires and releases balance and never go negative", checkLockBalance},
		{"gamma-sanity", "every sampled contention factor has 1 <= c <= procs+ambient and gamma >= 1, and the in-flight counter steps by exactly +-1 staying in [0, procs]", checkGammaSanity},
		{"fault-conservation", "every injected transient is accounted for: Transients == Retries + Fallbacks, and all counters are non-negative", checkFaultConservation},
		{"model-conformance", "for fault-free, skew-free runs of algorithms with closed forms, the simulated latency stays within the model envelope", checkModelConformance},
		{"net-span-nesting", "on cluster runs, every net_send/net_recv span nests inside an enclosing collective span on its lane", checkNetSpanNesting},
		{"link-accounting", "on cluster runs, every link conserves flow (injected == delivered) and never delivers faster than its line rate over its activity window", checkLinkAccounting},
		{"leader-phase-order", "on leader-design gathering kinds, a leader's intra-node phase completes before its first network send", checkLeaderPhaseOrder},
		{"no-dead-traffic", "after a rank is killed, its lane records no further spans, instants, or message sends", checkNoDeadTraffic},
		{"reelect-order", "leader re-election happens after world agreement and before the re-run, and the re-run preserves leader-phase ordering", checkReelectOrder},
		{"shrink-residue", "after a world shrink, every undrained fabric flow targets a rank the survivors agreed dead", checkShrinkResidue},
	}
}

// CheckInvariants evaluates the registry over one run. For a kill-plan
// run (r.Killed) the structural trace invariants that a legitimately
// dying rank breaks — span closure, lock balance — are relaxed as
// documented on the individual checks.
func CheckInvariants(r *RunResult) []Violation {
	var out []Violation
	for _, inv := range Invariants() {
		out = append(out, inv.Check(r)...)
	}
	return out
}

// checkClockMonotone: the recorder appends at begin time and the
// simulator's clock is globally monotone, so Start must be
// non-decreasing in recording order for all events recorded at their
// Start (spans, instants, counters). Edges are recorded at receive end
// with Start = the earlier wait start, so they are exempt from the
// recording-order rule but must satisfy their own ordering fields:
// SendTs <= ReadyTs and Start <= End.
func checkClockMonotone(r *RunResult) []Violation {
	var out []Violation
	bad := func(format string, args ...any) {
		out = append(out, Violation{"clock-monotone", fmt.Sprintf(format, args...)})
	}
	last := math.Inf(-1)
	for i, e := range r.Rec.Events() {
		if e.Kind == trace.KindEdge {
			if e.SendTs > e.ReadyTs {
				bad("event %d (%s): edge SendTs %.4f > ReadyTs %.4f", i, e.Name, e.SendTs, e.ReadyTs)
			}
			if e.Start > e.End {
				bad("event %d (%s): edge wait start %.4f > recv end %.4f", i, e.Name, e.Start, e.End)
			}
			continue
		}
		if e.Start < last {
			bad("event %d (%s): Start %.4f < previous %.4f", i, e.Name, e.Start, last)
		}
		last = e.Start
	}
	return out
}

// checkSpanNesting: spans on one lane must nest (collective step > MPI
// op > shm/CMA op > chunk) and every span must be closed by the end of
// the run. A lane whose rank was killed mid-operation legitimately
// leaves its innermost spans open, so on a kill run lanes with open
// spans are skipped entirely.
func checkSpanNesting(r *RunResult) []Violation {
	var out []Violation
	type span struct {
		name       string
		start, end float64
	}
	perLane := map[int][]span{}
	openLane := map[int]bool{}
	for _, e := range r.Rec.Events() {
		if e.Kind != trace.KindSpan {
			continue
		}
		if e.End < e.Start { // never closed
			openLane[e.Lane] = true
			continue
		}
		perLane[e.Lane] = append(perLane[e.Lane], span{e.Name, e.Start, e.End})
	}
	for lane := range openLane {
		if !r.Killed {
			out = append(out, Violation{"span-nesting",
				fmt.Sprintf("lane %d: span left open at end of run", lane)})
		}
		delete(perLane, lane) // a dying rank's remaining spans are partial
	}
	for lane, spans := range perLane {
		// Spans arrive in begin order (recording order). A stack check:
		// pop finished siblings, then the new span must fit inside the
		// enclosing one.
		var stack []span
		for _, s := range spans {
			for len(stack) > 0 && stack[len(stack)-1].end <= s.start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && s.end > stack[len(stack)-1].end {
				top := stack[len(stack)-1]
				out = append(out, Violation{"span-nesting",
					fmt.Sprintf("lane %d: span %s [%.4f, %.4f] overlaps enclosing %s [%.4f, %.4f]",
						lane, s.name, s.start, s.end, top.name, top.start, top.end)})
				continue
			}
			stack = append(stack, s)
		}
	}
	return out
}

// lockKey identifies one (mm owner lane, holder lane) pair.
type lockKey struct{ owner, holder int }

// checkLockBalance: the kernel emits mm_lock_acquire / mm_lock_release
// instants per contention chunk on the mm owner's lane with the
// caller's lane as the "holder" arg. Each caller is a single simulated
// process, so per (owner, holder) the balance must alternate 0 -> 1 ->
// 0 and end at zero. A killed rank can die holding a chunk, so on a
// kill run a non-zero final balance is tolerated (but over-release
// never is).
func checkLockBalance(r *RunResult) []Violation {
	var out []Violation
	balance := map[lockKey]int{}
	for i, e := range r.Rec.Events() {
		if e.Kind != trace.KindInstant || (e.Name != "mm_lock_acquire" && e.Name != "mm_lock_release") {
			continue
		}
		h, ok := e.Arg("holder")
		if !ok {
			out = append(out, Violation{"lock-balance",
				fmt.Sprintf("event %d: %s without holder arg", i, e.Name)})
			continue
		}
		k := lockKey{owner: e.Lane, holder: int(h)}
		if e.Name == "mm_lock_acquire" {
			balance[k]++
			if balance[k] > 1 {
				out = append(out, Violation{"lock-balance",
					fmt.Sprintf("event %d: holder %d re-acquired owner %d's mm lock (balance %d)", i, k.holder, k.owner, balance[k])})
			}
		} else {
			balance[k]--
			if balance[k] < 0 {
				out = append(out, Violation{"lock-balance",
					fmt.Sprintf("event %d: holder %d released owner %d's mm lock it never acquired", i, k.holder, k.owner)})
			}
		}
	}
	if !r.Killed {
		for k, b := range balance {
			if b != 0 {
				out = append(out, Violation{"lock-balance",
					fmt.Sprintf("holder %d ends with balance %d on owner %d's mm lock", k.holder, b, k.owner)})
			}
		}
	}
	return out
}

// checkGammaSanity: every γ(c) sample must carry a concurrency count in
// [1, procs + ambient] (the γ curve sees the spec's phantom co-tenant
// holders on top of the local fan-in) and a factor >= 1 (contention
// never accelerates a copy), and the mm in-flight counter must step by
// exactly ±1 per sample, staying within [0, procs] — ambient holders
// are phantom and never enter the real in-flight count.
func checkGammaSanity(r *RunResult) []Violation {
	var out []Violation
	bad := func(format string, args ...any) {
		out = append(out, Violation{"gamma-sanity", fmt.Sprintf(format, args...)})
	}
	p := float64(r.Procs)
	cMax := p + float64(r.Spec.Ambient)
	lastInFlight := map[int]float64{}
	for i, e := range r.Rec.Events() {
		switch {
		case e.Kind == trace.KindInstant && e.Name == "gamma":
			g, _ := e.Arg("gamma")
			c, ok := e.Arg("c")
			if !ok {
				bad("event %d: gamma sample without c arg", i)
				continue
			}
			if c < 1 || c > cMax {
				bad("event %d: gamma concurrency c=%v outside [1, %v]", i, c, cMax)
			}
			if g < 1 {
				bad("event %d: gamma %v < 1", i, g)
			}
		case e.Kind == trace.KindInstant && e.Name == "mm_lock_acquire":
			if c, ok := e.Arg("c"); ok && (c < 1 || c > cMax) {
				bad("event %d: mm_lock_acquire concurrency c=%v outside [1, %v]", i, c, cMax)
			}
		case e.Kind == trace.KindCounter && e.Name == trace.CounterInFlight:
			if e.Value < 0 || e.Value > p {
				bad("event %d: %s = %v outside [0, %d]", i, e.Name, e.Value, r.Procs)
			}
			if prev, ok := lastInFlight[e.Lane]; ok {
				if d := e.Value - prev; d != 1 && d != -1 {
					bad("event %d: %s on lane %d stepped %v -> %v (want ±1)", i, e.Name, e.Lane, prev, e.Value)
				}
			} else if e.Value != 1 {
				bad("event %d: first %s sample on lane %d is %v, want 1", i, e.Name, e.Lane, e.Value)
			}
			lastInFlight[e.Lane] = e.Value
		case e.Kind == trace.KindCounter && e.Name == trace.CounterQueue:
			if e.Value < 0 {
				bad("event %d: %s = %v < 0", i, e.Name, e.Value)
			}
		}
	}
	return out
}

// checkFaultConservation: the retry machinery must account for every
// injected transient — each one either burned a backoff retry or
// terminated a budget into a per-peer fallback, so Transients ==
// Retries + Fallbacks. Injected partials are always resumed in place at
// no budget cost, so they appear only in Partials. All counters and
// accumulated times must be non-negative.
func checkFaultConservation(r *RunResult) []Violation {
	var out []Violation
	s := r.Stats
	bad := func(format string, args ...any) {
		out = append(out, Violation{"fault-conservation", fmt.Sprintf(format, args...)})
	}
	if s.Transients != s.Retries+s.Fallbacks {
		bad("Transients (%d) != Retries (%d) + Fallbacks (%d)", s.Transients, s.Retries, s.Fallbacks)
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"Transients", s.Transients}, {"Partials", s.Partials},
		{"LockSpikes", s.LockSpikes}, {"ShmStalls", s.ShmStalls},
		{"Stragglers", s.Stragglers}, {"Retries", s.Retries},
		{"Fallbacks", s.Fallbacks}, {"BounceOps", s.BounceOps},
		{"BounceBytes", s.BounceBytes}, {"Kills", s.Kills},
	} {
		if c.v < 0 {
			bad("%s = %d < 0", c.name, c.v)
		}
	}
	if s.BackoffTime < 0 {
		bad("BackoffTime = %v < 0", s.BackoffTime)
	}
	if s.Retries > 0 && s.BackoffTime <= 0 {
		bad("%d retries but zero backoff time", s.Retries)
	}
	if s.BounceBytes > 0 && s.BounceOps == 0 {
		bad("%d bounce bytes moved in zero bounce ops", s.BounceBytes)
	}
	if s.Kills > 0 && !r.Killed {
		bad("%d kills recorded by a plan without the kill class", s.Kills)
	}
	return out
}

// checkNetSpanNesting: fabric activity only ever happens on behalf of a
// cluster collective or the world liveness layer, so on a cluster run
// every CatNet span must fit inside a CatColl span (the "hcoll:*"
// wrapper or one of its phase spans) or a CatLiveness span (agreement
// rounds and re-election gossip cross the fabric too) on the same
// lane. On a kill run a dying or aborting rank legitimately leaves its
// wrapper span open, so an unclosed wrapper counts as a window that
// extends to the end of the run, and an unclosed CatNet span (the
// in-flight fabric op the abort interrupted) is skipped.
func checkNetSpanNesting(r *RunResult) []Violation {
	if r.Spec.Nodes == 0 {
		return nil
	}
	var out []Violation
	type window struct{ start, end float64 }
	collOpen := map[int][]window{}
	for _, e := range r.Rec.Events() {
		if e.Kind == trace.KindSpan && (e.Cat == trace.CatColl || e.Cat == trace.CatLiveness) {
			switch {
			case e.End >= e.Start:
				collOpen[e.Lane] = append(collOpen[e.Lane], window{e.Start, e.End})
			case r.Killed: // aborted wrapper: open from Start onwards
				collOpen[e.Lane] = append(collOpen[e.Lane], window{e.Start, math.Inf(1)})
			}
		}
	}
	for _, e := range r.Rec.Events() {
		if e.Kind != trace.KindSpan || e.Cat != trace.CatNet {
			continue
		}
		if e.End < e.Start && r.Killed {
			continue // a dying or aborting rank's in-flight fabric op
		}
		inside := false
		for _, w := range collOpen[e.Lane] {
			if w.start <= e.Start && e.End <= w.end {
				inside = true
				break
			}
		}
		if !inside {
			out = append(out, Violation{"net-span-nesting",
				fmt.Sprintf("lane %d: %s [%.4f, %.4f] outside any collective span", e.Lane, e.Name, e.Start, e.End)})
		}
	}
	return out
}

// checkLinkAccounting: the fabric's per-link counters must conserve
// flow, and because gammaNet(c) >= c a link's aggregate delivery can
// never beat its line rate — delivered bytes times the per-byte time
// must fit the link's activity window, with slack for the chunks in
// flight at the window edges.
func checkLinkAccounting(r *RunResult) []Violation {
	if r.Spec.Nodes == 0 {
		return nil
	}
	var out []Violation
	for _, ls := range r.Links {
		if ls.Injected != ls.Delivered {
			out = append(out, Violation{"link-accounting",
				fmt.Sprintf("link %s: injected %d bytes != delivered %d", ls.Name, ls.Injected, ls.Delivered)})
		}
		window := ls.Last - ls.First
		if need := ls.LineTime(); need > window+ls.EdgeSlack()+1e-6 {
			out = append(out, Violation{"link-accounting",
				fmt.Sprintf("link %s: %d bytes need %.2fus of line rate but the activity window is %.2fus (max %d flows)",
					ls.Name, ls.Delivered, need, window, ls.MaxActive)})
		}
	}
	return out
}

// leaderGatheringKinds are the leader-design kinds whose on-node phase
// runs strictly before the leaders' network exchange.
var leaderGatheringKinds = map[core.Kind]bool{
	core.KindGather: true, core.KindReduce: true,
	core.KindAllgather: true, core.KindAlltoall: true,
}

// checkLeaderPhaseOrder: in a leader design of a gathering kind, a
// leader cannot ship its node's contribution before the intra-node
// phase has produced it — on every lane with network sends, the first
// h_intra span must end at or before the first net_send starts. Kill
// runs are excluded: an aborted attempt, liveness gossip and the
// re-run interleave on one lane, so the whole-lane first-span logic
// does not apply — checkReelectOrder enforces the same ordering
// scoped to the re-run window instead.
func checkLeaderPhaseOrder(r *RunResult) []Violation {
	if r.Spec.Nodes == 0 || r.Spec.Design != "leader" || !leaderGatheringKinds[r.Spec.Kind] || r.Killed {
		return nil
	}
	var out []Violation
	firstIntraEnd := map[int]float64{}
	for _, e := range r.Rec.Events() {
		if e.Kind == trace.KindSpan && e.Name == "h_intra" && e.End >= e.Start {
			if _, ok := firstIntraEnd[e.Lane]; !ok {
				firstIntraEnd[e.Lane] = e.End
			}
		}
	}
	reported := map[int]bool{}
	firstSend := map[int]float64{}
	for _, e := range r.Rec.Events() {
		if e.Kind != trace.KindSpan || e.Name != "net_send" {
			continue
		}
		if _, ok := firstSend[e.Lane]; ok {
			continue
		}
		firstSend[e.Lane] = e.Start
		end, ok := firstIntraEnd[e.Lane]
		if !ok {
			out = append(out, Violation{"leader-phase-order",
				fmt.Sprintf("lane %d: net_send at %.4f with no intra-node phase on the lane", e.Lane, e.Start)})
			continue
		}
		if e.Start < end && !reported[e.Lane] {
			reported[e.Lane] = true
			out = append(out, Violation{"leader-phase-order",
				fmt.Sprintf("lane %d: net_send at %.4f before the intra phase ends at %.4f", e.Lane, e.Start, end)})
		}
	}
	return out
}

// modelEnvelope is the accepted simulated/predicted latency ratio band
// for the closed forms. The forms are first-order (they ignore
// barrier/skew interleaving and socket placement of the root), so the
// band is deliberately generous: it catches order-of-magnitude breaks —
// a mis-costed path, a serialization bug, a dropped contention term —
// not fitting error.
const (
	modelEnvelopeLo = 1.0 / 4
	modelEnvelopeHi = 4.0
)

// checkModelConformance: when RunOne computed a closed-form prediction
// (fault-free, skew-free, kernel-assisted sizes only — see predictFor),
// the simulated latency must stay within the envelope of it.
func checkModelConformance(r *RunResult) []Violation {
	if r.Pred <= 0 || r.Latency <= 0 {
		return nil
	}
	ratio := r.Latency / r.Pred
	if ratio < modelEnvelopeLo || ratio > modelEnvelopeHi {
		return []Violation{{"model-conformance",
			fmt.Sprintf("%s/%s size %d procs %d: simulated %.2fus vs closed form %.2fus (ratio %.3f outside [%.2f, %.2f])",
				r.Spec.Kind, r.Spec.Algo, r.Spec.Count, r.Procs, r.Latency, r.Pred, ratio, modelEnvelopeLo, modelEnvelopeHi)}}
	}
	return nil
}

// orderEps absorbs float64 timestamp identity: events emitted in the
// same simulation step share a timestamp, so all the recovery-ordering
// checks use strict inequality with this slack.
const orderEps = 1e-9

// checkNoDeadTraffic: a kill is a panic out of the rank body, so death
// must be the last thing a rank's lane ever records. For every lane
// carrying a "rank_killed" instant at time T: no span or instant may
// start after T, and no message edge may leave the lane with a send
// timestamp after T. Counters and CatLock events are exempt — both
// attribute to the lane that owns the underlying resource (an mm-lock
// instant lands on the mm-owner's lane), and a survivor draining a
// dead rank's pages legitimately touches them after the death.
func checkNoDeadTraffic(r *RunResult) []Violation {
	if !r.Killed {
		return nil
	}
	deadAt := map[int]float64{}
	for _, e := range r.Rec.Events() {
		if e.Kind == trace.KindInstant && e.Name == "rank_killed" {
			if t, ok := deadAt[e.Lane]; !ok || e.Start < t {
				deadAt[e.Lane] = e.Start
			}
		}
	}
	if len(deadAt) == 0 {
		return nil
	}
	var out []Violation
	for _, e := range r.Rec.Events() {
		switch e.Kind {
		case trace.KindSpan, trace.KindInstant:
			if e.Cat == trace.CatLock {
				continue
			}
			if t, ok := deadAt[e.Lane]; ok && e.Start > t+orderEps {
				out = append(out, Violation{"no-dead-traffic",
					fmt.Sprintf("lane %d: %s at %.4f after the rank died at %.4f", e.Lane, e.Name, e.Start, t)})
			}
		case trace.KindEdge:
			if t, ok := deadAt[e.From]; ok && e.SendTs > t+orderEps {
				out = append(out, Violation{"no-dead-traffic",
					fmt.Sprintf("edge %s from dead lane %d to %d: sent at %.4f after the sender died at %.4f",
						e.Name, e.From, e.Lane, e.SendTs, t)})
			}
		}
	}
	return out
}

// checkReelectOrder: the recovery pipeline is detect -> agree ->
// shrink -> elect -> re-run, and the trace must show it in that order
// on every surviving lane. Per lane with a closed "elect" span: every
// closed "agree" span and every "shrink" instant precede the election,
// and every re-run collective ("hcoll:*:rerun") starts only after the
// election ends. The re-run itself always uses the two-level leader
// decomposition, so for gathering kinds the leader-phase ordering
// (first intra phase completes before the first network send inside
// the re-run window) must hold regardless of the attempt's design.
func checkReelectOrder(r *RunResult) []Violation {
	if !r.Killed || r.Spec.Nodes == 0 {
		return nil
	}
	type window struct{ start, end float64 }
	elect := map[int]window{}
	for _, e := range r.Rec.Events() {
		if e.Kind == trace.KindSpan && e.Cat == trace.CatLiveness && e.Name == "elect" && e.End >= e.Start {
			elect[e.Lane] = window{e.Start, e.End}
		}
	}
	if len(elect) == 0 {
		return nil
	}
	var out []Violation
	rerun := map[int]window{}
	for _, e := range r.Rec.Events() {
		w, ok := elect[e.Lane]
		if !ok {
			continue
		}
		switch {
		case e.Kind == trace.KindSpan && e.Name == "agree" && e.End >= e.Start:
			if e.End > w.start+orderEps {
				out = append(out, Violation{"reelect-order",
					fmt.Sprintf("lane %d: agreement ends at %.4f after the election started at %.4f", e.Lane, e.End, w.start)})
			}
		case e.Kind == trace.KindInstant && e.Name == "shrink":
			if e.Start > w.start+orderEps {
				out = append(out, Violation{"reelect-order",
					fmt.Sprintf("lane %d: shrink at %.4f after the election started at %.4f", e.Lane, e.Start, w.start)})
			}
		case e.Kind == trace.KindSpan && isRerunName(e.Name) && e.End >= e.Start:
			if e.Start < w.end-orderEps {
				out = append(out, Violation{"reelect-order",
					fmt.Sprintf("lane %d: re-run %s starts at %.4f before the election ended at %.4f", e.Lane, e.Name, e.Start, w.end)})
			}
			rerun[e.Lane] = window{e.Start, e.End}
		}
	}
	if !leaderGatheringKinds[r.Spec.Kind] {
		return out
	}
	// Leader-phase ordering inside each lane's re-run window, over
	// closed spans only (survivor lanes never abort inside the re-run,
	// but attempt-phase spans on the same lane must not leak in).
	firstIntraEnd := map[int]float64{}
	for _, e := range r.Rec.Events() {
		w, ok := rerun[e.Lane]
		if !ok || e.Kind != trace.KindSpan || e.End < e.Start || e.Start < w.start || e.End > w.end {
			continue
		}
		if e.Name == "h_intra" {
			if _, seen := firstIntraEnd[e.Lane]; !seen {
				firstIntraEnd[e.Lane] = e.End
			}
		}
	}
	firstSend := map[int]bool{}
	for _, e := range r.Rec.Events() {
		w, ok := rerun[e.Lane]
		if !ok || e.Kind != trace.KindSpan || e.Name != "net_send" || e.End < e.Start ||
			e.Start < w.start || e.End > w.end || firstSend[e.Lane] {
			continue
		}
		firstSend[e.Lane] = true
		if end, seen := firstIntraEnd[e.Lane]; seen && e.Start < end-orderEps {
			out = append(out, Violation{"reelect-order",
				fmt.Sprintf("lane %d: re-run net_send at %.4f before the re-run intra phase ends at %.4f", e.Lane, e.Start, end)})
		}
	}
	return out
}

// isRerunName matches the "hcoll:<kind>:rerun" wrapper span names.
func isRerunName(name string) bool {
	const prefix, suffix = "hcoll:", ":rerun"
	return len(name) > len(prefix)+len(suffix) &&
		name[:len(prefix)] == prefix && name[len(name)-len(suffix):] == suffix
}

// checkShrinkResidue: after a shrink the survivors drain the fabric, so
// anything still sitting in a flow queue must have been addressed to a
// rank the survivors agreed dead — residue targeting a live rank means
// a message the re-run should have consumed but didn't.
func checkShrinkResidue(r *RunResult) []Violation {
	if len(r.Residue) == 0 {
		return nil
	}
	dead := map[int]bool{}
	if r.Recovery != nil {
		for _, f := range r.Recovery.Failed {
			dead[f] = true
		}
	}
	var out []Violation
	for _, res := range r.Residue {
		if !dead[res.To] {
			out = append(out, Violation{"shrink-residue",
				fmt.Sprintf("flow %d->%d: %d msgs (%d bytes) undrained but rank %d was never agreed dead",
					res.From, res.To, res.Msgs, res.Bytes, res.To)})
		}
	}
	return out
}
