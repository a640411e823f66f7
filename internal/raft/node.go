package raft

import (
	"errors"
	"fmt"
	"time"
)

// ErrNotLeader is returned by Propose on a non-leader; callers forward to
// Lead() if known.
var ErrNotLeader = errors.New("raft: not the leader")

// Config configures a Node.
type Config struct {
	// ID is this node's identity; it must appear in Peers or Learners.
	ID ID
	// Peers lists every initial voting member. Membership can change at
	// runtime through ProposeConfChange.
	Peers []ID
	// Learners lists initial non-voting members: they replicate the log
	// and reset election timers on leader traffic but hold no vote. A
	// joining node typically starts here and is promoted once caught up.
	Learners []ID
	// Runtime supplies clock, transport, timers and randomness.
	Runtime Runtime
	// Tuner supplies election parameters (static baseline or Dynatune).
	Tuner Tuner
	// Tracer observes protocol events; nil means no tracing.
	Tracer Tracer
	// Apply, if non-nil, receives committed entries in order. Entries with
	// nil Data are internal no-ops appended on leader election.
	Apply func([]Entry)

	// DisablePreVote turns off the pre-vote phase (on by default, as in
	// recent etcd — the paper's baseline includes it, §II-A).
	DisablePreVote bool
	// DisableCheckQuorum turns off leader self-demotion without quorum
	// contact (on by default, as in etcd).
	DisableCheckQuorum bool

	// SuppressHeartbeatWhileReplicating implements the first future-work
	// optimization of the paper's §IV-E: replication traffic doubles as
	// liveness (followers reset their election timers on MsgApp), so a
	// leader that just shipped entries to a peer pushes that peer's next
	// heartbeat back by one interval, eliminating redundant beats under
	// client load and recovering peak throughput.
	SuppressHeartbeatWhileReplicating bool
	// ConsolidatedHeartbeats implements the second §IV-E optimization: a
	// single leader timer armed at the minimum per-peer interval sends all
	// heartbeats in one sweep, replacing the n−1 per-pair timers Dynatune
	// otherwise needs and reducing leader scheduling load.
	ConsolidatedHeartbeats bool

	// Persister, when set, receives durable-state transitions (term/vote,
	// log appends and truncations, snapshots) before any dependent message
	// is sent. Nil disables persistence — the pure in-memory mode the
	// paper's pause-failure experiments use.
	Persister Persister
	// Restored resumes the node from state a Persister recovered after a
	// crash (term, vote, snapshot, log suffix). Nil starts fresh.
	Restored *Restored

	// SnapshotData, when set, lets a leader ship state-machine snapshots
	// to followers whose log tail was compacted away (InstallSnapshot,
	// Raft §7). It must return the state at the log's applied index.
	SnapshotData func() []byte
	// RestoreSnapshot installs snapshot data on the state machine; index
	// is the snapshot's last included log index. Required when
	// SnapshotData is set.
	RestoreSnapshot func(data []byte, index uint64)

	// SnapshotChunk caps the snapshot bytes carried per MsgSnap. Larger
	// snapshots stream as a chunk sequence with offset/resume and one
	// in-flight chunk per follower; 0 (the default) ships any snapshot in
	// a single envelope, the legacy byte-compatible behaviour.
	SnapshotChunk int
	// Snapshot, when armed (any trigger non-zero), automatically
	// snapshots the state machine and truncates the log as entries apply.
	// Requires SnapshotData.
	Snapshot SnapshotPolicy
}

func (c *Config) validate() error {
	if c.ID == None {
		return errors.New("raft: config needs a non-zero ID")
	}
	if c.Runtime == nil {
		return errors.New("raft: config needs a Runtime")
	}
	if c.Tuner == nil {
		return errors.New("raft: config needs a Tuner")
	}
	found := false
	seen := map[ID]bool{}
	for _, p := range append(append([]ID(nil), c.Peers...), c.Learners...) {
		if p == None {
			return errors.New("raft: peer ID 0 is reserved")
		}
		if seen[p] {
			return fmt.Errorf("raft: duplicate member %d", p)
		}
		seen[p] = true
		if p == c.ID {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("raft: ID %d not in peers %v or learners %v", c.ID, c.Peers, c.Learners)
	}
	return nil
}

// progress is the leader's view of one follower (etcd's Progress).
type progress struct {
	match uint64
	next  uint64
	// recentActive is set by any response since the last check-quorum
	// sweep.
	recentActive bool
	// lastActive is the time of the most recent response; the lease-read
	// path derives the check-quorum lease from it.
	lastActive time.Duration
	// snap is the in-flight chunked snapshot transfer to this follower
	// (nil when none). Dying with the progress map on step-down is the
	// term-change abort path.
	snap *snapXfer
}

// Node is a single Raft participant. It is not safe for concurrent use:
// all inputs must arrive on one goroutine (the simulator loop or the
// server's event loop).
type Node struct {
	cfg Config
	id  ID

	// Membership. voters and learners are the authoritative sets; peers
	// (every remote member, sorted) and quorum are caches rebuilt on every
	// configuration change.
	voters   map[ID]bool
	learners map[ID]bool
	peers    []ID // excluding self
	quorum   int
	// removed is set once this node saw its own removal commit; it goes
	// quiet (no campaigns) but keeps answering reads of its local state.
	removed bool
	// pendingConfIndex is the log index of the newest unapplied
	// configuration change; at most one may be in flight (etcd's rule).
	pendingConfIndex uint64

	state State
	term  uint64
	vote  ID
	lead  ID
	log   *Log

	// pendingSnap is the partially received chunked snapshot (follower
	// side); any role or term change discards it.
	pendingSnap *inboundSnap

	// randRatio is u in randomizedTimeout = Et·(1+u). Keeping u stable
	// while Et is retuned makes randomizedTimeout track Et continuously
	// (what Fig. 6 plots); u is redrawn on role/term changes and timer
	// expirations, as etcd redraws its randomized timeout.
	randRatio         float64
	lastLeaderContact time.Duration

	// campaign bookkeeping
	granted map[ID]bool
	refused map[ID]bool

	// lastPersisted is the most recent HardState handed to the Persister,
	// to skip redundant saves.
	lastPersisted HardState

	// leader bookkeeping
	prs map[ID]*progress
	// matchBuf is maybeCommit's reusable match-index scratch (hot on
	// every append response; a per-call allocation shows up at scale).
	matchBuf []uint64
	// transferee is the pending leadership-transfer target (None if no
	// transfer is in flight).
	transferee ID

	// linearizable-read bookkeeping (readindex.go)
	readCtx      uint64
	pendingReads []*readRequest
	readWaiters  []readWaiter

	tracer Tracer
}

// NewNode validates cfg and returns an inert node; call Start to arm its
// first election timer.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:      cfg,
		id:       cfg.ID,
		log:      NewLog(),
		state:    StateFollower,
		tracer:   cfg.Tracer,
		voters:   make(map[ID]bool, len(cfg.Peers)),
		learners: make(map[ID]bool, len(cfg.Learners)),
	}
	if n.tracer == nil {
		n.tracer = NopTracer{}
	}
	for _, p := range cfg.Peers {
		n.voters[p] = true
	}
	for _, p := range cfg.Learners {
		n.learners[p] = true
	}
	n.rebuildMembership()
	if r := cfg.Restored; r != nil {
		n.term = r.HardState.Term
		n.vote = r.HardState.Vote
		n.lastPersisted = r.HardState
		if r.Snapshot != nil {
			n.log = NewLogFromState(r.Snapshot.Index, r.Snapshot.Term, r.Entries)
			if cfg.RestoreSnapshot != nil {
				cfg.RestoreSnapshot(r.Snapshot.Data, r.Snapshot.Index)
			}
			if len(r.Snapshot.Voters) > 0 {
				// The snapshot's membership supersedes the configured one:
				// conf changes below its floor are not in the log anymore.
				n.adoptMembership(r.Snapshot.Voters, r.Snapshot.Learners)
			}
		} else {
			n.log = NewLogFromState(0, 0, r.Entries)
		}
	}
	if cfg.Persister != nil {
		// Installed after restore so the recovered suffix is not re-saved.
		n.log.SetObserver(logPersister{cfg.Persister})
	}
	n.randRatio = n.cfg.Runtime.Rand().Float64()
	return n, nil
}

// Start arms the initial election timer. The node begins as a follower
// with no known leader.
func (n *Node) Start() {
	n.lastLeaderContact = -time.Hour // no contact yet; lease never blocks at boot
	n.resetElectionTimer()
}

// --- accessors ---

// ID returns the node's identity.
func (n *Node) ID() ID { return n.id }

// State returns the current role.
func (n *Node) State() State { return n.state }

// Term returns the current term.
func (n *Node) Term() uint64 { return n.term }

// Lead returns the believed leader (None if unknown).
func (n *Node) Lead() ID { return n.lead }

// Log exposes the node's log (read-mostly; used by tests and the apply
// loop).
func (n *Node) Log() *Log { return n.log }

// Quorum returns the majority size.
func (n *Node) Quorum() int { return n.quorum }

// FirstIndex returns the oldest retained log index (the compaction
// floor) — observability for the snapshot/compaction policy.
func (n *Node) FirstIndex() uint64 { return n.log.FirstIndex() }

// LogEntries returns how many real entries the log currently retains.
func (n *Node) LogEntries() int { return n.log.Len() }

// LogBytes returns the payload size of the retained log entries.
func (n *Node) LogBytes() uint64 { return n.log.Bytes() }

// ElectionTimeoutBase returns the tuner's current Et.
func (n *Node) ElectionTimeoutBase() time.Duration { return n.cfg.Tuner.ElectionTimeout() }

// RandomizedTimeout returns Et·(1+u), the value Fig. 6 plots.
func (n *Node) RandomizedTimeout() time.Duration {
	et := n.cfg.Tuner.ElectionTimeout()
	return et + time.Duration(n.randRatio*float64(et))
}

// Tuner returns the node's tuner.
func (n *Node) Tuner() Tuner { return n.cfg.Tuner }

// --- timers ---

func (n *Node) resetElectionTimer() {
	now := n.cfg.Runtime.Now()
	var d time.Duration
	if n.state == StateLeader {
		// Check-quorum sweep period: the base (non-randomized) timeout.
		d = n.cfg.Tuner.ElectionTimeout()
	} else {
		d = n.RandomizedTimeout()
	}
	n.cfg.Runtime.SetTimer(TimerElection, None, now+d)
}

func (n *Node) redrawRandom() {
	n.randRatio = n.cfg.Runtime.Rand().Float64()
}

// OnTimer is the runtime's callback when a timer armed via SetTimer fires.
func (n *Node) OnTimer(kind TimerKind, peer ID) {
	switch kind {
	case TimerElection:
		n.onElectionTimeout()
	case TimerHeartbeat:
		n.onHeartbeatTimeout(peer)
	default:
		panic(fmt.Sprintf("raft: unknown timer kind %d", kind))
	}
}

func (n *Node) onElectionTimeout() {
	if n.state == StateLeader {
		n.checkQuorum()
		return
	}
	if n.removed || n.learners[n.id] {
		// Non-voters never campaign. A learner still falls back to default
		// parameters on timeout (its measurements are stale) and keeps a
		// timer running so Dynatune instrumentation stays live.
		n.lead = None
		n.cfg.Tuner.Reset(ResetTimeout)
		n.redrawRandom()
		n.resetElectionTimer()
		return
	}
	// A follower that believed in a leader has just detected its failure —
	// the instant the paper measures as "detection" (§IV-A). Candidates
	// re-timing-out indicate a fruitless (split or stalled) round.
	if n.lead != None && n.state == StateFollower {
		n.trace(EventTimeout)
	} else if n.state == StateCandidate || n.state == StatePreCandidate {
		n.trace(EventSplitVote)
	}
	n.lead = None
	// Paper §III-B: on a local timeout the follower discards collected
	// network data and falls back to the conservative defaults.
	n.cfg.Tuner.Reset(ResetTimeout)
	n.redrawRandom()
	n.campaign()
	n.resetElectionTimer()
}

func (n *Node) onHeartbeatTimeout(peer ID) {
	if n.state != StateLeader {
		return // stale timer after stepping down
	}
	if n.cfg.ConsolidatedHeartbeats {
		// Single-timer mode: one sweep beats every follower, re-armed at
		// the minimum tuned interval (paper §IV-E).
		for _, p := range n.peers {
			n.sendHeartbeat(p)
		}
		n.armConsolidatedHeartbeat()
		return
	}
	n.sendHeartbeat(peer)
	now := n.cfg.Runtime.Now()
	n.cfg.Runtime.SetTimer(TimerHeartbeat, peer, now+n.cfg.Tuner.HeartbeatInterval(peer))
}

// minHeartbeatInterval returns the smallest tuned interval across peers.
func (n *Node) minHeartbeatInterval() time.Duration {
	var m time.Duration
	for _, p := range n.peers {
		if h := n.cfg.Tuner.HeartbeatInterval(p); m == 0 || h < m {
			m = h
		}
	}
	return m
}

func (n *Node) armConsolidatedHeartbeat() {
	n.cfg.Runtime.SetTimer(TimerHeartbeat, None, n.cfg.Runtime.Now()+n.minHeartbeatInterval())
}

func (n *Node) checkQuorum() {
	// A transfer that has not completed within one election timeout is
	// abandoned (the target may have died); leadership stays here.
	n.abortTransfer()
	if n.cfg.DisableCheckQuorum {
		n.resetElectionTimer()
		return
	}
	active := 0
	if n.isVoter() {
		active = 1 // self
	}
	for id, pr := range n.prs {
		if pr.recentActive && n.voters[id] {
			active++
		}
		pr.recentActive = false
	}
	if active < n.quorum {
		// Lost contact with the majority: abdicate (etcd check-quorum).
		n.becomeFollower(n.term, None)
		return
	}
	n.resetElectionTimer()
}

// --- role transitions ---

func (n *Node) becomeFollower(term uint64, lead ID) {
	oldState, oldLead, oldTerm := n.state, n.lead, n.term
	if n.state == StateLeader {
		for _, p := range n.peers {
			n.cfg.Runtime.CancelTimer(TimerHeartbeat, p)
		}
		n.cfg.Runtime.CancelTimer(TimerHeartbeat, None)
	}
	n.state = StateFollower
	if term > n.term {
		n.term = term
		n.vote = None
	}
	n.lead = lead
	n.prs = nil
	n.transferee = None
	n.granted, n.refused = nil, nil
	n.pendingSnap = nil
	n.failPendingReads()
	if lead != None {
		n.lastLeaderContact = n.cfg.Runtime.Now()
	}
	if lead != oldLead {
		// Fresh leader relationship: per-pair statistics are stale
		// (paper §III-B: return to Step 0 under a newly elected leader).
		n.cfg.Tuner.Reset(ResetLeaderChange)
	}
	n.persistHardState()
	n.redrawRandom()
	n.resetElectionTimer()
	if oldState != StateFollower {
		n.trace(EventStateChange)
	}
	if (oldState == StatePreCandidate || oldState == StateCandidate) && lead != None {
		n.trace(EventRevert)
	}
	if term > oldTerm {
		n.trace(EventTermChange)
	}
}

func (n *Node) becomePreCandidate() {
	n.state = StatePreCandidate
	n.lead = None
	n.granted = map[ID]bool{n.id: true}
	n.refused = map[ID]bool{}
	n.trace(EventStateChange)
}

func (n *Node) becomeCandidate() {
	n.state = StateCandidate
	n.term++
	n.vote = n.id
	n.lead = None
	n.granted = map[ID]bool{n.id: true}
	n.refused = map[ID]bool{}
	n.persistHardState()
	n.trace(EventStateChange)
	n.trace(EventTermChange)
}

func (n *Node) becomeLeader() {
	n.state = StateLeader
	n.lead = n.id
	n.granted, n.refused = nil, nil
	n.transferee = None
	n.pendingReads, n.readWaiters = nil, nil
	n.prs = make(map[ID]*progress, len(n.peers))
	last := n.log.LastIndex()
	for _, p := range n.peers {
		n.prs[p] = &progress{next: last + 1}
	}
	// Re-arm the pending-change guard across leadership changes: an
	// unapplied conf entry inherited from a previous term still blocks new
	// ones (etcd scans its log tail the same way).
	n.pendingConfIndex = 0
	for i := n.log.Applied() + 1; i <= last; i++ {
		if e, ok := n.log.Entry(i); ok && e.Type == EntryConfChange {
			n.pendingConfIndex = i
		}
	}
	// Leader-side tuning state starts fresh (paper §III-B Step 0).
	n.cfg.Tuner.Reset(ResetBecameLeader)
	n.trace(EventStateChange)
	n.trace(EventLeaderElected)
	// Commit an entry from the new term immediately (Raft §5.4.2 no-op).
	n.log.Append(n.term, nil)
	n.maybeCommit()
	n.broadcastAppend()
	now := n.cfg.Runtime.Now()
	if n.cfg.ConsolidatedHeartbeats {
		for _, p := range n.peers {
			n.sendHeartbeat(p)
		}
		n.armConsolidatedHeartbeat()
	} else {
		for _, p := range n.peers {
			n.sendHeartbeat(p)
			n.cfg.Runtime.SetTimer(TimerHeartbeat, p, now+n.cfg.Tuner.HeartbeatInterval(p))
		}
	}
	n.resetElectionTimer() // check-quorum sweep
}

func (n *Node) trace(kind EventKind) {
	n.tracer.Trace(Event{
		Time:              n.cfg.Runtime.Now(),
		Node:              n.id,
		Kind:              kind,
		Term:              n.term,
		State:             n.state,
		Lead:              n.lead,
		RandomizedTimeout: n.RandomizedTimeout(),
	})
}

// send fills in From and dispatches.
func (n *Node) send(m Message) {
	m.From = n.id
	if m.Term == 0 {
		m.Term = n.term
	}
	n.cfg.Runtime.Send(m)
}
