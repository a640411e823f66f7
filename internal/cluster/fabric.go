package cluster

import (
	"fmt"
	"time"

	"dynatune/internal/netsim"
	"dynatune/internal/raft"
	"dynatune/internal/sim"
)

// Fabric is the multi-Raft node consolidation layer: G groups co-located
// on the same N simulated nodes share one physical transport and one
// timer driver per node instead of duplicating both per group.
//
//   - One netsim mesh for the whole deployment. Each directed node pair
//     has a single link (profile, TCP ordering floor, fault state), so a
//     partition or degrade cuts the physical path once and every group
//     riding it is affected — and the mesh holds N² links instead of G·N².
//   - One scheduled engine event per node per tick-class. Group timers
//     register in a per-node consolidated table; the earliest deadline
//     arms the node's tick, which dispatches every due (group, peer)
//     timer in deterministic order. Deadlines snap to a coarse grid
//     (heartbeats to heartbeatTick, elections to electionTick) so
//     co-located groups phase-lock: G groups heartbeating at the same
//     interval collapse to a few grid phases rather than G scattered
//     wakeups.
//   - Per-node-pair message batching. Messages bound for the same peer
//     node within batchWindow ship as one netsim.Envelope of per-group
//     payloads and are unbatched on arrival (each payload still pays the
//     receiver's per-message CPU cost).
//
// Every sharded deployment (internal/shard) runs its groups on one
// Fabric, installed via Options.Fabric. Single-group clusters built
// without one keep their private mesh and per-timer engine events, so
// the classic testbed's behavior (and its goldens) is untouched.
type Fabric struct {
	eng *sim.Engine
	n   int

	net *netsim.Network[netsim.Envelope[raft.Message]]

	// members indexes attached groups by their attach UID. Entries are
	// never removed or reused: a decommissioned group stays in the table
	// so envelopes still in flight land on its paused runtimes (and die
	// there) instead of leaking into a slot-reusing successor.
	members []*Cluster

	nodes []*fabricNode

	// logical counts raft messages submitted by senders — what the wire
	// would have carried one-per-message without envelope batching.
	logical uint64

	// pool recycles envelope payload slices. The engine is single-threaded,
	// so a plain freelist suffices; only TCP envelopes come back (see
	// Envelope.Recycle), everything else is left to the GC.
	pool [][]netsim.GroupMsg[raft.Message]
}

func (f *Fabric) getMsgs() []netsim.GroupMsg[raft.Message] {
	if n := len(f.pool); n > 0 {
		s := f.pool[n-1]
		f.pool = f.pool[:n-1]
		return s[:0]
	}
	return nil
}

func (f *Fabric) putMsgs(s []netsim.GroupMsg[raft.Message]) {
	if cap(s) == 0 {
		return
	}
	f.pool = append(f.pool, s)
}

// electionTick is the election-timer grid. Deadlines round up (an
// election timer must never fire early), so the grid only needs to be
// small against the 1000–2000 ms randomized timeouts it snaps.
//
// heartbeatTick is the heartbeat-timer grid: equal to the baseline
// h=100 ms, so every group heartbeating at the default cadence collapses
// onto a single shared phase, one tick per node drives all of them, and
// their wire traffic batches into one envelope per peer. The grid adapts
// downward per timer — it halves until one step is at most a quarter of
// the timer's lead time — because a Dynatune-tuned interval can sit far
// below the baseline, and parking a tuned ~25 ms heartbeat on a 100 ms
// grid would starve the followers' equally-tuned failure detectors and
// churn elections. Groups with similar tuned cadences still share the
// finer slots.
//
// batchWindow is how long an outgoing per-(peer, class) batch
// accumulates before it ships as one envelope: two loadgen flush periods
// — invisible against a WAN RTT, and it folds a request's whole
// per-group fan-out into one envelope per peer.
const (
	electionTick  = 5 * time.Millisecond
	heartbeatTick = BaselineH
	batchWindow   = 2 * time.Millisecond
)

// NewFabric builds the shared transport for a deployment of n physical
// nodes. Every directed link follows profile (nil Segments take the
// testbed's default constant profile). Groups attach via Options.Fabric.
func NewFabric(eng *sim.Engine, n int, profile netsim.Profile) *Fabric {
	if profile.Segments == nil {
		profile = netsim.Constant(netsim.Params{RTT: 100 * time.Millisecond, Jitter: 2 * time.Millisecond})
	}
	f := &Fabric{eng: eng, n: n}
	f.net = netsim.New[netsim.Envelope[raft.Message]](eng, n, profile, f.deliverEnvelope)
	f.nodes = make([]*fabricNode, n)
	for i := 0; i < n; i++ {
		nd := &fabricNode{
			f:       f,
			id:      i,
			stride:  2 * (n + 1),
			batches: make([]outBatch, n*2),
		}
		nd.flushFn = nd.flush
		nd.fireFns[raft.TimerElection] = func() { nd.fire(raft.TimerElection) }
		nd.fireFns[raft.TimerHeartbeat] = func() { nd.fire(raft.TimerHeartbeat) }
		f.nodes[i] = nd
	}
	return f
}

// Net exposes the shared physical mesh — the fault surface for the whole
// deployment: one SetDown severs the path for every attached group.
func (f *Fabric) Net() *netsim.Network[netsim.Envelope[raft.Message]] { return f.net }

// LogicalMessages returns the count of raft messages submitted by
// senders. Divide by the mesh's TotalStats().Sent to get the envelope
// batching factor.
func (f *Fabric) LogicalMessages() uint64 { return f.logical }

// attach registers a group and returns its UID. Called from build() when
// Options.Fabric is set.
func (f *Fabric) attach(c *Cluster) int {
	if c.opts.N != f.n {
		panic(fmt.Sprintf("cluster: fabric spans %d nodes, group wants %d", f.n, c.opts.N))
	}
	f.members = append(f.members, c)
	return len(f.members) - 1
}

// deliverEnvelope is the mesh sink: it demuxes an arrived envelope to the
// addressed groups' runtimes on the destination node, feeding each
// consecutive same-group run to its replica in one call. Each payload
// still pays its own receive CPU cost; a paused runtime (retired group,
// frozen container) drops its share. Runs never retain the envelope's
// backing slice (queued ones stage into the replica's inbox), so a
// recyclable envelope goes straight back to the pool.
func (f *Fabric) deliverEnvelope(to int, env netsim.Envelope[raft.Message]) {
	msgs := env.Msgs
	for i := 0; i < len(msgs); {
		j := i + 1
		for j < len(msgs) && msgs[j].Group == msgs[i].Group {
			j++
		}
		f.members[msgs[i].Group].rts[to].deliverRun(msgs[i:j])
		i = j
	}
	if env.Recycle {
		f.putMsgs(msgs)
	}
}

type fabTimer struct {
	at time.Duration
	rt *nodeRT // nil marks an empty slot
}

// fabricNode is one physical node's consolidated driver: the merged
// timer table of every co-located group replica and the outgoing
// per-(peer, class) batches.
type fabricNode struct {
	f  *Fabric
	id int // 0-based physical node

	// slots merges every attached replica's armed timers, indexed by
	// uid*stride + kind*(n+1) + peer — a flat array instead of a hashed
	// map because timer resets are the fabric's hottest write (every
	// append or heartbeat response re-deadlines the election timer).
	// Ascending index order is (uid, kind, peer) order, so a linear scan
	// is already the deterministic dispatch order. Per tick-class at most
	// one engine event is armed, at the earliest deadline; firing
	// dispatches everything due and re-arms at the new minimum. A timer
	// cancelled while armed just leaves a spurious wakeup behind.
	slots    []fabTimer
	stride   int
	armed    [2]sim.Handle
	armedAt  [2]time.Duration
	hasArmed [2]bool
	fireFns  [2]func()
	due      []int32 // dispatch scratch

	// batches accumulate one delivery window's traffic per (peer, class).
	// A single armed flush event per node ships every non-empty batch, so
	// a heartbeat sweep or append fan-out over all peers costs one event,
	// not one per pair.
	batches    []outBatch // [to*2+class]
	flushArmed bool
	flushFn    func()
}

// slot maps one replica timer to its index in slots, growing the table
// when a newly attached group's uid is first seen.
func (nd *fabricNode) slot(uid int, kind raft.TimerKind, peer raft.ID) int {
	if need := (uid + 1) * nd.stride; len(nd.slots) < need {
		nd.slots = append(nd.slots, make([]fabTimer, need-len(nd.slots))...)
	}
	return uid*nd.stride + int(kind)*(nd.f.n+1) + int(peer)
}

// outBatch accumulates one delivery window's messages for a (peer,
// class) pair.
type outBatch struct {
	msgs []netsim.GroupMsg[raft.Message]
}

// flush ships every non-empty batch of the node in (peer, class) order.
func (nd *fabricNode) flush() {
	nd.flushArmed = false
	for i := range nd.batches {
		b := &nd.batches[i]
		if len(b.msgs) == 0 {
			continue
		}
		cls := netsim.Class(i & 1)
		// A TCP envelope is delivered at most once, so the receiver can
		// hand the slice back to the fabric pool after demux. UDP
		// duplication may deliver the same envelope twice, so those
		// slices go to the GC.
		env := netsim.Envelope[raft.Message]{Msgs: b.msgs, Recycle: cls == netsim.TCP}
		b.msgs = nil
		nd.f.net.Send(nd.id, i>>1, cls, env)
	}
}

// send enqueues one logical message into the (peer, class) batch, arming
// the node's flush batchWindow out on first use in a window.
func (nd *fabricNode) send(uid int, cls netsim.Class, m raft.Message) {
	f := nd.f
	f.logical++
	to := int(m.To - 1)
	b := &nd.batches[to*2+int(cls)]
	if b.msgs == nil {
		b.msgs = f.getMsgs()
	}
	b.msgs = append(b.msgs, netsim.GroupMsg[raft.Message]{Group: uid, Msg: m})
	if !nd.flushArmed {
		nd.flushArmed = true
		f.eng.Schedule(f.eng.Now()+batchWindow, nd.flushFn)
	}
}

// quantizeCeil snaps at up to the next grid point (never earlier).
func quantizeCeil(at, tick time.Duration) time.Duration {
	if r := at % tick; r != 0 {
		at += tick - r
	}
	return at
}

// setTimer registers (or re-deadlines) one replica's timer in the node's
// consolidated table. Skew transforms were already applied by the
// caller; quantization happens here, after them, so a skewed clock still
// lands on the shared grid.
func (nd *fabricNode) setTimer(rt *nodeRT, kind raft.TimerKind, peer raft.ID, at time.Duration) {
	f := nd.f
	now := f.eng.Now()
	switch kind {
	case raft.TimerElection:
		at = quantizeCeil(at, electionTick)
	case raft.TimerHeartbeat:
		// Round up onto the coarsest grid whose one-step delay stays
		// small (≤ 1/4) against the timer's lead time. Any interval that
		// is a multiple of its grid phase-locks after one quantization —
		// spacing is exactly h thereafter, so the followers' tuned
		// timeouts see the same cadence as the per-group build — while a
		// tuned ~25 ms heartbeat lands on a proportionally finer grid
		// instead of being parked 4 intervals out past its failure
		// detectors.
		grid := heartbeatTick
		for delta := at - now; grid > time.Millisecond && grid*4 > delta; {
			grid >>= 1
		}
		at = quantizeCeil(at, grid)
	}
	if at < now {
		at = now
	}
	nd.slots[nd.slot(rt.fabUID, kind, peer)] = fabTimer{at: at, rt: rt}
	k := int(kind)
	if nd.hasArmed[k] && nd.armedAt[k] <= at {
		return // the armed tick already covers this deadline
	}
	if nd.hasArmed[k] {
		f.eng.Cancel(nd.armed[k])
	}
	nd.armed[k] = f.eng.Schedule(at, nd.fireFns[k])
	nd.armedAt[k] = at
	nd.hasArmed[k] = true
}

func (nd *fabricNode) cancelTimer(uid int, kind raft.TimerKind, peer raft.ID) {
	nd.slots[nd.slot(uid, kind, peer)].rt = nil
	// The armed tick, if it was for this deadline, fires as a cheap
	// spurious wakeup and re-arms at the surviving minimum.
}

// dropTimers forgets every timer of one replica — a crashed process's
// timers must never drive its successor.
func (nd *fabricNode) dropTimers(uid int) {
	lo := uid * nd.stride
	if lo >= len(nd.slots) {
		return
	}
	for i := lo; i < lo+nd.stride; i++ {
		nd.slots[i].rt = nil
	}
}

// fire is the node's tick for one class: it collects every due timer in
// slot order — already deterministic (uid, peer) order — dispatches them
// through each replica's CPU, and re-arms at the remaining minimum. Due
// slots are cleared at collection, before any handler runs; a handler
// only ever touches its own replica's slots (which were just cleared),
// so later due entries stay valid. An idle replica's handler runs
// inline — charging its CPU without a per-timer engine event — while a
// busy one queues through Exec.
func (nd *fabricNode) fire(kind raft.TimerKind) {
	k := int(kind)
	nd.hasArmed[k] = false
	now := nd.f.eng.Now()
	base := k * (nd.f.n + 1)
	due := nd.due[:0]
	for lo := 0; lo < len(nd.slots); lo += nd.stride {
		for p := 0; p <= nd.f.n; p++ {
			i := lo + base + p
			if t := nd.slots[i]; t.rt != nil && t.at <= now {
				due = append(due, int32(i))
			}
		}
	}
	for _, i := range due {
		rt := nd.slots[i].rt
		nd.slots[i].rt = nil
		if rt.paused {
			continue
		}
		// stride is a multiple of n+1, so the peer is the index mod n+1.
		peer := raft.ID(int(i) % (nd.f.n + 1))
		if rt.proc.Backlog() == 0 {
			rt.proc.Charge(rt.c.cost.TimerFire)
			rt.node.OnTimer(kind, peer)
			continue
		}
		rt.proc.Exec(rt.c.cost.TimerFire, func() {
			rt.node.OnTimer(kind, peer)
		})
	}
	nd.due = due[:0]
	nd.rearm(k)
}

// rearm schedules the class tick at the table's minimum deadline, unless
// an earlier (or equal) tick is already armed.
func (nd *fabricNode) rearm(k int) {
	var min time.Duration
	found := false
	base := k * (nd.f.n + 1)
	for lo := 0; lo < len(nd.slots); lo += nd.stride {
		for p := 0; p <= nd.f.n; p++ {
			if t := nd.slots[lo+base+p]; t.rt != nil && (!found || t.at < min) {
				min, found = t.at, true
			}
		}
	}
	if !found {
		return
	}
	if nd.hasArmed[k] {
		if nd.armedAt[k] <= min {
			return
		}
		nd.f.eng.Cancel(nd.armed[k])
	}
	nd.armed[k] = nd.f.eng.Schedule(min, nd.fireFns[k])
	nd.armedAt[k] = min
	nd.hasArmed[k] = true
}
