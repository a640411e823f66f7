package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"dynatune/internal/raft"
)

// frameBoundaryMessages are the size-edge cases the binary serving path
// must survive: empty payloads, 0-byte entry data, and frames that brush
// the MaxFrame ceiling.
func frameBoundaryMessages() []raft.Message {
	big := make([]byte, MaxFrame-headerLen-64) // just under the frame cap
	return []raft.Message{
		{Type: raft.MsgHeartbeat, From: 1, To: 2, Term: 1},
		{Type: raft.MsgApp, From: 1, To: 2, Term: 3, Entries: []raft.Entry{
			{Term: 3, Index: 9, Type: raft.EntryNormal}, // nil Data
		}},
		{Type: raft.MsgApp, From: 1, To: 2, Term: 3, Entries: []raft.Entry{
			{Term: 3, Index: 10, Type: raft.EntryNormal, Data: []byte{}}, // 0-byte value
		}},
		{Type: raft.MsgSnap, From: 2, To: 3, Term: 7, Snap: []byte{}},
		{Type: raft.MsgSnap, From: 2, To: 3, Term: 7, Snap: big},
	}
}

func TestFrameSizeBoundaries(t *testing.T) {
	for i, m := range frameBoundaryMessages() {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("msg %d: WriteFrame: %v", i, err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("msg %d: ReadFrame: %v", i, err)
		}
		// nil vs empty slices are semantically identical on the wire.
		if got.Type != m.Type || got.Term != m.Term || len(got.Entries) != len(m.Entries) || !bytes.Equal(got.Snap, m.Snap) {
			t.Fatalf("msg %d: round trip mismatch: %+v vs %+v", i, got, m)
		}
	}
	// One past the cap must be rejected at write time.
	over := raft.Message{Type: raft.MsgSnap, From: 1, To: 2, Snap: make([]byte, MaxFrame)}
	if err := WriteFrame(io.Discard, over); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("WriteFrame(over-MaxFrame message) = %v, want ErrFrameTooLarge", err)
	}
}

// Every truncation of a valid frame must fail cleanly — io error or
// ErrCorrupt — never panic and never yield a bogus message.
func TestTruncatedFramesCleanErrors(t *testing.T) {
	m := raft.Message{Type: raft.MsgApp, From: 1, To: 2, Term: 5, Index: 9, Entries: []raft.Entry{
		{Term: 5, Index: 10, Type: raft.EntryNormal, Data: []byte("hello")},
	}, Snap: []byte("snapshot")}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, m); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		_, err := ReadFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d of %d decoded successfully", cut, len(full))
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d: unexpected error class %v", cut, err)
		}
	}
}

// FuzzWireDecode drives Decode with arbitrary bytes: it must never panic,
// and anything it accepts must re-encode to a decode-equal message (the
// codec is canonical).
func FuzzWireDecode(f *testing.F) {
	for _, m := range frameBoundaryMessages() {
		if len(Encode(m)) < 4096 { // keep the corpus small
			f.Add(Encode(m))
		}
	}
	m := raft.Message{Type: raft.MsgVote, From: 3, To: 1, Term: 9, LogTerm: 8, Index: 44,
		SnapVoters: []raft.ID{1, 2, 3}, SnapLearners: []raft.ID{4}}
	enc := Encode(m)
	f.Add(enc)
	f.Add(enc[:len(enc)-3]) // truncated tail
	f.Add(enc[:headerLen])  // header only
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(got)
		got2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encode of accepted input failed to decode: %v", err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(got2)) {
			t.Fatalf("decode/encode/decode mismatch:\n%+v\n%+v", got, got2)
		}
	})
}

// normalize maps nil and empty slices onto one representation: the wire
// format cannot distinguish them.
func normalize(m raft.Message) raft.Message {
	if len(m.Snap) == 0 {
		m.Snap = nil
	}
	if len(m.Entries) == 0 {
		m.Entries = nil
	}
	for i := range m.Entries {
		if len(m.Entries[i].Data) == 0 {
			m.Entries[i].Data = nil
		}
	}
	if len(m.SnapVoters) == 0 {
		m.SnapVoters = nil
	}
	if len(m.SnapLearners) == 0 {
		m.SnapLearners = nil
	}
	return m
}
