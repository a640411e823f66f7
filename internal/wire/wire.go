// Package wire is the binary codec for raft messages on real networks:
// UDP datagrams for Dynatune's heartbeat path and length-prefixed TCP
// frames for consensus traffic (the paper's hybrid transport, §III-E).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"dynatune/internal/raft"
)

// MaxFrame bounds a single message frame (64 MiB) to stop a corrupt
// length prefix from allocating unbounded memory.
const MaxFrame = 64 << 20

// ErrCorrupt reports an undecodable message.
var ErrCorrupt = errors.New("wire: corrupt message")

// ErrFrameTooLarge is returned by WriteFrame for a message whose encoding
// exceeds MaxFrame. Nothing is written, and no connection can carry it.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

const headerLen = 1 + 8 + 8 + 8 + 8 + 8 + 8 + 1 + 8 + // type..hint
	8 + 8 + 8 + // heartbeat meta
	8 + 8 + // heartbeat resp meta
	8 + // read context
	4 // entry count
// A 4-byte snapshot length (possibly 0) follows the entries.

// Append serializes m onto buf and returns the extended slice.
func Append(buf []byte, m raft.Message) []byte {
	buf = append(buf, byte(m.Type))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.From))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.To))
	buf = binary.BigEndian.AppendUint64(buf, m.Term)
	buf = binary.BigEndian.AppendUint64(buf, m.Index)
	buf = binary.BigEndian.AppendUint64(buf, m.LogTerm)
	buf = binary.BigEndian.AppendUint64(buf, m.Commit)
	var flags byte
	if m.Reject {
		flags |= 1
	}
	if m.Transfer {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint64(buf, m.Hint)
	buf = binary.BigEndian.AppendUint64(buf, m.HB.Seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.HB.SendTime))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.HB.RTT))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.HBResp.EchoTime))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.HBResp.Interval))
	buf = binary.BigEndian.AppendUint64(buf, m.ReadCtx)
	if len(m.Entries) > math.MaxUint32 {
		panic("wire: too many entries")
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Entries)))
	for _, e := range m.Entries {
		buf = binary.BigEndian.AppendUint64(buf, e.Term)
		buf = binary.BigEndian.AppendUint64(buf, e.Index)
		buf = append(buf, byte(e.Type))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Data)))
		buf = append(buf, e.Data...)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Snap)))
	buf = append(buf, m.Snap...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.SnapVoters)))
	for _, id := range m.SnapVoters {
		buf = binary.BigEndian.AppendUint64(buf, uint64(id))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.SnapLearners)))
	for _, id := range m.SnapLearners {
		buf = binary.BigEndian.AppendUint64(buf, uint64(id))
	}
	return buf
}

// Encode serializes m into a fresh buffer.
func Encode(m raft.Message) []byte {
	size := headerLen + 4 + len(m.Snap) + 8 + 8*(len(m.SnapVoters)+len(m.SnapLearners))
	for _, e := range m.Entries {
		size += 8 + 8 + 1 + 4 + len(e.Data)
	}
	return Append(make([]byte, 0, size), m)
}

// Decode parses a message encoded by Encode/Append.
func Decode(b []byte) (raft.Message, error) {
	var m raft.Message
	if len(b) < headerLen {
		return m, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(b))
	}
	m.Type = raft.MsgType(b[0])
	if m.Type < raft.MsgApp || m.Type > raft.MsgTimeoutNow {
		return m, fmt.Errorf("%w: bad type %d", ErrCorrupt, b[0])
	}
	m.From = raft.ID(binary.BigEndian.Uint64(b[1:]))
	m.To = raft.ID(binary.BigEndian.Uint64(b[9:]))
	m.Term = binary.BigEndian.Uint64(b[17:])
	m.Index = binary.BigEndian.Uint64(b[25:])
	m.LogTerm = binary.BigEndian.Uint64(b[33:])
	m.Commit = binary.BigEndian.Uint64(b[41:])
	m.Reject = b[49]&1 != 0
	m.Transfer = b[49]&2 != 0
	m.Hint = binary.BigEndian.Uint64(b[50:])
	m.HB.Seq = binary.BigEndian.Uint64(b[58:])
	m.HB.SendTime = int64(binary.BigEndian.Uint64(b[66:]))
	m.HB.RTT = int64(binary.BigEndian.Uint64(b[74:]))
	m.HBResp.EchoTime = int64(binary.BigEndian.Uint64(b[82:]))
	m.HBResp.Interval = int64(binary.BigEndian.Uint64(b[90:]))
	m.ReadCtx = binary.BigEndian.Uint64(b[98:])
	n := binary.BigEndian.Uint32(b[106:])
	rest := b[headerLen:]
	if n > 0 {
		m.Entries = make([]raft.Entry, 0, min(int(n), 4096))
	}
	for i := uint32(0); i < n; i++ {
		if len(rest) < 21 {
			return m, fmt.Errorf("%w: truncated entry %d", ErrCorrupt, i)
		}
		var e raft.Entry
		e.Term = binary.BigEndian.Uint64(rest)
		e.Index = binary.BigEndian.Uint64(rest[8:])
		e.Type = raft.EntryType(rest[16])
		if e.Type > raft.EntryConfChange {
			return m, fmt.Errorf("%w: bad entry type %d", ErrCorrupt, rest[16])
		}
		dlen := binary.BigEndian.Uint32(rest[17:])
		rest = rest[21:]
		if uint32(len(rest)) < dlen {
			return m, fmt.Errorf("%w: truncated entry data %d", ErrCorrupt, i)
		}
		if dlen > 0 {
			e.Data = append([]byte(nil), rest[:dlen]...)
		}
		rest = rest[dlen:]
		m.Entries = append(m.Entries, e)
	}
	if len(rest) < 4 {
		return m, fmt.Errorf("%w: missing snapshot length", ErrCorrupt)
	}
	slen := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if uint32(len(rest)) < slen {
		return m, fmt.Errorf("%w: snapshot length %d vs %d bytes", ErrCorrupt, slen, len(rest))
	}
	if slen > 0 {
		m.Snap = append([]byte(nil), rest[:slen]...)
	}
	rest = rest[slen:]
	var err error
	if m.SnapVoters, rest, err = decodeIDs(rest); err != nil {
		return m, fmt.Errorf("%w: snapshot voters: %v", ErrCorrupt, err)
	}
	if m.SnapLearners, rest, err = decodeIDs(rest); err != nil {
		return m, fmt.Errorf("%w: snapshot learners: %v", ErrCorrupt, err)
	}
	if len(rest) != 0 {
		return m, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return m, nil
}

// decodeIDs parses a count-prefixed ID list, returning the remainder.
func decodeIDs(b []byte) ([]raft.ID, []byte, error) {
	if len(b) < 4 {
		return nil, b, errors.New("missing count")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint64(len(b)) < 8*uint64(n) {
		return nil, b, fmt.Errorf("truncated list of %d", n)
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]raft.ID, n)
	for i := range out {
		out[i] = raft.ID(binary.BigEndian.Uint64(b))
		b = b[8:]
	}
	return out, b, nil
}

// WriteFrame writes m as a length-prefixed frame (TCP streams).
func WriteFrame(w io.Writer, m raft.Message) error {
	payload := Encode(m)
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, len(payload), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) (raft.Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return raft.Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return raft.Message{}, fmt.Errorf("%w: frame length %d", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return raft.Message{}, err
	}
	return Decode(payload)
}
