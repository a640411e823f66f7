package raft

import (
	"fmt"
	"time"
)

// Propose appends a client command on the leader and replicates it. It
// returns the assigned log index.
func (n *Node) Propose(data []byte) (uint64, error) {
	if n.state != StateLeader {
		return 0, ErrNotLeader
	}
	if n.transferee != None {
		return 0, ErrTransferring
	}
	idx := n.log.Append(n.term, data)
	n.maybeCommit() // single-node clusters commit immediately
	n.broadcastAppend()
	return idx, nil
}

// ProposeBatch appends several commands at once (one MsgApp per peer),
// the batching etcd's Ready loop performs under load; the throughput
// experiment relies on it.
func (n *Node) ProposeBatch(datas [][]byte) (first, last uint64, err error) {
	if n.state != StateLeader {
		return 0, 0, ErrNotLeader
	}
	if n.transferee != None {
		return 0, 0, ErrTransferring
	}
	if len(datas) == 0 {
		return 0, 0, nil
	}
	last = n.log.Append(n.term, datas...)
	first = last - uint64(len(datas)) + 1
	n.maybeCommit()
	n.broadcastAppend()
	return first, last, nil
}

func (n *Node) broadcastAppend() {
	if n.state != StateLeader {
		// A conf change applied mid-flow (self-removal) may have already
		// stepped us down.
		return
	}
	hadEntries := n.log.LastIndex() > 0
	for _, p := range n.peers {
		if pr := n.prs[p]; pr != nil && pr.next > n.log.LastIndex() {
			hadEntries = false
		}
		n.sendAppend(p)
	}
	if n.cfg.SuppressHeartbeatWhileReplicating && n.cfg.ConsolidatedHeartbeats && hadEntries && n.state == StateLeader {
		// Every follower just received a timer-resetting MsgApp; the
		// shared heartbeat can wait one full minimum interval.
		n.cfg.Runtime.SetTimer(TimerHeartbeat, None, n.cfg.Runtime.Now()+n.minHeartbeatInterval())
	}
}

// maxEntriesPerApp caps the entries one MsgApp carries.
const maxEntriesPerApp = 64

// sendAppend ships the next batch of entries to peer (or an empty probe
// carrying commit if the peer is caught up). If the tail the peer needs
// was compacted away, a snapshot is shipped instead (Raft §7).
func (n *Node) sendAppend(peer ID) {
	pr := n.prs[peer]
	if n.state != StateLeader || pr == nil {
		return // stepped down or the peer was removed mid-flow
	}
	if pr.next <= n.log.FirstIndex() {
		if n.sendSnapshot(peer) {
			return
		}
		// No snapshot support configured: restart from the oldest retained
		// point (its sentinel term is preserved, so the consistency check
		// still functions for peers that merely lag within one window).
		pr.next = n.log.FirstIndex() + 1
	}
	prevIndex := pr.next - 1
	prevTerm, ok := n.log.Term(prevIndex)
	if !ok {
		return
	}
	entries, _ := n.log.Slice(pr.next, n.log.LastIndex(), maxEntriesPerApp)
	n.send(Message{
		Type:    MsgApp,
		To:      peer,
		Term:    n.term,
		Index:   prevIndex,
		LogTerm: prevTerm,
		Entries: entries,
		Commit:  n.log.Committed(),
	})
	// Optimistic pipelining (etcd's replicate mode): assume the entries
	// land and advance next immediately, so back-to-back proposals stream
	// instead of re-sending the unacked window every time. A rejection
	// rewinds next.
	pr.next += uint64(len(entries))

	if n.cfg.SuppressHeartbeatWhileReplicating && len(entries) > 0 && !n.cfg.ConsolidatedHeartbeats {
		// The MsgApp resets the follower's election timer, so the next
		// heartbeat to this peer can wait a full interval from now
		// (paper §IV-E). In consolidated mode the shared timer is pushed
		// back only by broadcastAppend, when every peer was beaten.
		now := n.cfg.Runtime.Now()
		n.cfg.Runtime.SetTimer(TimerHeartbeat, peer, now+n.cfg.Tuner.HeartbeatInterval(peer))
	}
}

// sendSnapshot ships the state machine at the leader's applied index to a
// peer that fell behind the compaction window. It reports whether a
// snapshot was sent (false when snapshots are not configured). Snapshots
// above Config.SnapshotChunk stream chunk by chunk (snapshot.go); at most
// one transfer per follower is in flight, and while one is, this only
// resends the current chunk after a stall — the flow control that keeps a
// slow follower from being buried under retransmits.
func (n *Node) sendSnapshot(peer ID) bool {
	if n.cfg.SnapshotData == nil {
		return false
	}
	pr := n.prs[peer]
	if x := pr.snap; x != nil {
		if n.cfg.Runtime.Now()-x.sentAt >= n.cfg.Tuner.ElectionTimeout() {
			n.sendSnapChunk(x) // chunk or ack presumed lost: resume
		}
		return true
	}
	index := n.log.Applied()
	term, ok := n.log.Term(index)
	if !ok {
		return false
	}
	data := n.cfg.SnapshotData()
	if n.cfg.SnapshotChunk <= 0 || len(data) <= n.cfg.SnapshotChunk {
		n.send(Message{
			Type:         MsgSnap,
			To:           peer,
			Term:         n.term,
			Index:        index,
			LogTerm:      term,
			Snap:         data,
			SnapVoters:   n.Voters(),
			SnapLearners: n.Learners(),
		})
		// Optimistically assume installation; a rejection (or a normal
		// ack) re-synchronizes progress.
		pr.next = index + 1
		return true
	}
	x := &snapXfer{
		to: peer, index: index, term: term, data: data,
		voters: n.Voters(), learners: n.Learners(),
	}
	pr.snap = x
	n.sendSnapChunk(x)
	// pr.next stays below the compaction floor until the install acks, so
	// replication keeps routing here while the stream is in flight.
	return true
}

// handleSnapshot installs a leader snapshot on a follower. Term relations
// were normalized by Step (m.Term == n.term, sender is leader).
func (n *Node) handleSnapshot(m Message) {
	if n.state != StateFollower || n.lead != m.From {
		n.becomeFollower(m.Term, m.From)
	}
	n.lead = m.From
	n.lastLeaderContact = n.cfg.Runtime.Now()
	n.resetElectionTimer()

	if m.Index <= n.log.Committed() {
		// Stale snapshot: we already have everything it contains. The ack
		// at our commit point also tells a streaming leader to drop the
		// transfer (commit outran the snapshot mid-stream).
		if n.pendingSnap != nil && n.pendingSnap.index <= n.log.Committed() {
			n.pendingSnap = nil
		}
		n.send(Message{Type: MsgAppResp, To: m.From, Term: n.term, Index: n.log.Committed()})
		return
	}
	if m.SnapTotal == 0 {
		// Legacy single-envelope install.
		n.installSnapshot(m.From, m.Index, m.LogTerm, m.Snap, m.SnapVoters, m.SnapLearners)
		return
	}
	// One chunk of a streamed transfer. Anything that doesn't match the
	// reassembly buffer (new transfer, changed coordinates) restarts it;
	// a chunk that isn't the next contiguous piece is answered with our
	// actual byte position so the leader resumes from there.
	ps := n.pendingSnap
	if ps == nil || ps.from != m.From || ps.index != m.Index ||
		ps.term != m.LogTerm || ps.total != m.SnapTotal {
		ps = &inboundSnap{from: m.From, index: m.Index, term: m.LogTerm, total: m.SnapTotal}
		n.pendingSnap = ps
	}
	if m.SnapOffset != uint64(len(ps.buf)) {
		n.send(Message{Type: MsgSnapResp, To: m.From, Term: n.term, Index: m.Index, Hint: uint64(len(ps.buf))})
		return
	}
	ps.buf = append(ps.buf, m.Snap...)
	if uint64(len(ps.buf)) < ps.total {
		n.send(Message{Type: MsgSnapResp, To: m.From, Term: n.term, Index: m.Index, Hint: uint64(len(ps.buf))})
		return
	}
	data := ps.buf
	n.pendingSnap = nil
	n.installSnapshot(m.From, m.Index, m.LogTerm, data, m.SnapVoters, m.SnapLearners)
}

func (n *Node) sendHeartbeat(peer ID) {
	now := n.cfg.Runtime.Now()
	meta := n.cfg.Tuner.PrepareHeartbeat(peer, now)
	// Commit is capped at the follower's match so it never learns a commit
	// index beyond its own log (etcd does the same).
	commit := n.log.Committed()
	if pr := n.prs[peer]; pr != nil && pr.match < commit {
		commit = pr.match
	}
	n.send(Message{Type: MsgHeartbeat, To: peer, Term: n.term, Commit: commit, HB: meta})
}

// handleAppend processes MsgApp on a follower/candidate. Term relations
// were normalized by Step: m.Term == n.term here.
func (n *Node) handleAppend(m Message) {
	if n.state != StateFollower || n.lead != m.From {
		// A candidate (or pre-candidate) discovering a live leader at its
		// own term reverts (etcd behaviour); a follower adopting a leader
		// restarts measurement state via the tuner reset inside.
		n.becomeFollower(m.Term, m.From)
	}
	n.lead = m.From
	n.lastLeaderContact = n.cfg.Runtime.Now()
	n.resetElectionTimer()

	if lastNew, ok := n.log.MaybeAppend(m.Index, m.LogTerm, m.Entries); ok {
		commit := m.Commit
		if commit > lastNew {
			commit = lastNew
		}
		n.commitTo(commit)
		n.send(Message{Type: MsgAppResp, To: m.From, Term: n.term, Index: lastNew})
	} else {
		n.send(Message{
			Type:   MsgAppResp,
			To:     m.From,
			Term:   n.term,
			Reject: true,
			Index:  m.Index,
			Hint:   n.log.LastIndex(),
		})
	}
}

func (n *Node) handleAppendResp(m Message) {
	if n.state != StateLeader {
		return
	}
	pr, ok := n.prs[m.From]
	if !ok {
		return
	}
	pr.recentActive = true
	pr.lastActive = n.cfg.Runtime.Now()
	if m.Reject {
		// Back up next; the follower's hint (its last index) lets us skip
		// the gap in one step (etcd's fast conflict resolution).
		next := m.Index // the prevIndex we tried
		if m.Hint+1 < next {
			next = m.Hint + 1
		}
		if next < 1 {
			next = 1
		}
		if next < pr.next {
			pr.next = next
		}
		n.sendAppend(m.From)
		return
	}
	if x := pr.snap; x != nil && m.Index >= x.index {
		// The streamed snapshot installed (or the follower's commit point
		// outran it): the transfer is over either way.
		pr.snap = nil
	}
	if m.Index > pr.match {
		pr.match = m.Index
		if m.From == n.transferee && pr.match == n.log.LastIndex() {
			// The transfer target caught up: hand over now.
			n.sendTimeoutNow(m.From)
		}
		if m.Index+1 > pr.next {
			// Never rewind an optimistically advanced next on a stale ack.
			pr.next = m.Index + 1
		}
		if n.maybeCommit() {
			// Propagate the new commit index promptly so followers apply
			// without waiting a full heartbeat interval.
			n.broadcastAppend()
		}
	}
	if pr.next <= n.log.LastIndex() {
		n.sendAppend(m.From)
	}
}

func (n *Node) handleHeartbeat(m Message) {
	if n.state != StateFollower || n.lead != m.From {
		n.becomeFollower(m.Term, m.From)
	}
	n.lead = m.From
	n.lastLeaderContact = n.cfg.Runtime.Now()
	n.resetElectionTimer()
	n.commitTo(m.Commit)
	resp := n.cfg.Tuner.ObserveHeartbeat(m.From, m.HB, n.cfg.Runtime.Now())
	n.send(Message{Type: MsgHeartbeatResp, To: m.From, Term: n.term, HBResp: resp, ReadCtx: m.ReadCtx})
}

func (n *Node) handleHeartbeatResp(m Message) {
	if n.state != StateLeader {
		return
	}
	pr, ok := n.prs[m.From]
	if !ok {
		return
	}
	pr.recentActive = true
	pr.lastActive = n.cfg.Runtime.Now()
	n.cfg.Tuner.ObserveHeartbeatResp(m.From, m.HBResp, n.cfg.Runtime.Now())
	n.onReadAck(m.From, m.ReadCtx)
	if pr.match < n.log.LastIndex() {
		n.sendAppend(m.From)
	}
}

// maybeCommit advances the commit index to the quorum match point,
// restricted to entries of the current term (Raft §5.4.2). It reports
// whether the commit index advanced. Only voters count: learner acks never
// advance the commit point.
func (n *Node) maybeCommit() bool {
	matches := n.matchBuf[:0]
	if n.isVoter() {
		matches = append(matches, n.log.LastIndex())
	}
	for id, pr := range n.prs {
		if n.voters[id] {
			matches = append(matches, pr.match)
		}
	}
	n.matchBuf = matches
	if len(matches) < n.quorum {
		return false
	}
	// Insertion sort, descending: the slice is one entry per voter (a
	// handful), and this runs on every append response — a per-call
	// reflection-based sort is measurable at multi-Raft scale.
	for i := 1; i < len(matches); i++ {
		for j := i; j > 0 && matches[j] > matches[j-1]; j-- {
			matches[j], matches[j-1] = matches[j-1], matches[j]
		}
	}
	candidate := matches[n.quorum-1]
	if candidate <= n.log.Committed() {
		return false
	}
	if t, ok := n.log.Term(candidate); !ok || t != n.term {
		return false
	}
	n.commitTo(candidate)
	return true
}

func (n *Node) commitTo(i uint64) {
	before := n.log.Committed()
	n.log.CommitTo(i)
	if n.log.Committed() == before {
		return
	}
	ents := n.log.NextToApply()
	if len(ents) == 0 {
		return
	}
	// Configuration changes are applied by the raft layer itself, in log
	// order relative to the surrounding entries; the state machine sees
	// the full batch but skips EntryConfChange records.
	for _, e := range ents {
		if e.Type != EntryConfChange {
			continue
		}
		cc, err := DecodeConfChange(e.Data)
		if err != nil {
			panic(fmt.Sprintf("raft: committed conf change %d undecodable: %v", e.Index, err))
		}
		n.applyConfChange(cc)
	}
	if n.cfg.Apply != nil {
		n.cfg.Apply(ents)
	}
	n.notifyReadWaiters()
	n.maybeAutoCompact()
}

// CompactLog discards applied entries older than keepLast entries behind
// the minimum replication point, bounding memory in long-running
// simulations. Safe to call at any time on any role. When snapshot
// shipping is configured, a leader may compact past lagging followers —
// they will be caught up by InstallSnapshot; without it, compaction is
// clamped at the slowest follower's match index.
func (n *Node) CompactLog(keepLast uint64) {
	if n.cfg.Persister != nil && n.cfg.SnapshotData != nil {
		// Make the durable log compactable too: snapshot the state machine
		// at the applied index so replay does not need the full history.
		if term, ok := n.log.Term(n.log.Applied()); ok {
			n.persistSnapshot(Snapshot{
				Index: n.log.Applied(), Term: term, Data: n.cfg.SnapshotData(),
				Voters: n.Voters(), Learners: n.Learners(),
			})
		}
	}
	limit := n.log.Applied()
	if n.state == StateLeader && n.cfg.SnapshotData == nil {
		for _, pr := range n.prs {
			if pr.match < limit {
				limit = pr.match
			}
		}
	}
	if limit > keepLast {
		limit -= keepLast
	} else {
		limit = 0
	}
	if limit > n.log.FirstIndex() {
		n.log.CompactTo(limit)
	}
}

// TimeSinceLeaderContact reports how long ago the node last heard from a
// leader (instrumentation for tests).
func (n *Node) TimeSinceLeaderContact() time.Duration {
	return n.cfg.Runtime.Now() - n.lastLeaderContact
}
