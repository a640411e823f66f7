package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dynatune/internal/kv"
)

const (
	numKeys   = 4096
	valueSize = 128
)

// keyNames are the preloaded keyspace, shared by every workload.
var keyNames = func() []string {
	ks := make([]string, numKeys)
	for i := range ks {
		ks[i] = fmt.Sprintf("k%04d", i)
	}
	return ks
}()

// makeValue builds the 128-byte value of the seq-th put to key: a
// kv.SeqValue header, the key index, and a filler derived from both, so
// a read reveals which write it observes and any corruption shows.
func makeValue(key int, seq uint64) []byte {
	v := make([]byte, valueSize)
	copy(v, kv.SeqValue(seq))
	binary.BigEndian.PutUint32(v[8:], uint32(key))
	x := splitmix64(uint64(key)<<40 ^ seq)
	for i := 12; i < valueSize; i++ {
		v[i] = byte(x >> (8 * (i % 8)))
	}
	return v
}

// decodeValue returns the sequence number a value of key carries, or an
// error if the value is not one makeValue produced for key.
func decodeValue(key int, v []byte) (uint64, error) {
	if len(v) != valueSize {
		return 0, fmt.Errorf("key %s: %d-byte value, want %d", keyNames[key], len(v), valueSize)
	}
	seq, ok := kv.SeqOf(v[:8])
	if !ok || seq == 0 {
		return 0, fmt.Errorf("key %s: no sequence header", keyNames[key])
	}
	if string(v) != string(makeValue(key, seq)) {
		return 0, fmt.Errorf("key %s: value for seq %d is corrupt", keyNames[key], seq)
	}
	return seq, nil
}

// model is the benchmark's record of every put it sent: per key, the send
// and acknowledgement instant of each sequence number, in nanoseconds
// since the model's epoch. Send instants are taken before the request
// leaves and ack instants after its response arrives, so every real-time
// order the checks infer from them holds for the real requests too.
type model struct {
	epoch time.Time
	keys  [numKeys]keyHist

	violations atomic.Int64
	mu         sync.Mutex
	first      error
}

type keyHist struct {
	mu   sync.Mutex
	send []int64 // send[seq-1]
	ack  []int64 // ack[seq-1]; 0 while unacknowledged or failed
}

func newModel(epoch time.Time) *model { return &model{epoch: epoch} }

func (m *model) now() int64 { return int64(time.Since(m.epoch)) + 1 }

// send allocates the next sequence number of key and stamps its send.
func (m *model) send(key int) uint64 {
	h := &m.keys[key]
	t := m.now()
	h.mu.Lock()
	h.send = append(h.send, t)
	h.ack = append(h.ack, 0)
	seq := uint64(len(h.send))
	h.mu.Unlock()
	return seq
}

// acked stamps the acknowledgement of key's seq-th put.
func (m *model) acked(key int, seq uint64) {
	h := &m.keys[key]
	t := m.now()
	h.mu.Lock()
	if h.ack[seq-1] == 0 {
		h.ack[seq-1] = t
	}
	h.mu.Unlock()
}

// checkRead validates a value read from key by a read that started at
// readStart (model nanoseconds): it must decode to a put the benchmark
// sent to key, and that put must not have been superseded before the
// read started — i.e. no put sent after its acknowledgement was itself
// acknowledged before readStart. A violation is recorded and returned.
func (m *model) checkRead(key int, v []byte, readStart int64) error {
	seq, err := decodeValue(key, v)
	if err == nil {
		err = m.keys[key].superseded(key, seq, readStart)
	}
	if err != nil {
		m.violate(err)
	}
	return err
}

func (h *keyHist) superseded(key int, seq uint64, before int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if seq > uint64(len(h.send)) {
		return fmt.Errorf("key %s: read seq %d, but only %d puts were sent", keyNames[key], seq, len(h.send))
	}
	a := h.ack[seq-1]
	if a == 0 {
		return nil // unacknowledged: concurrent with everything after it
	}
	for w := int(seq); w < len(h.send); w++ {
		if h.send[w] > a && h.ack[w] != 0 && h.ack[w] < before {
			return fmt.Errorf("key %s: read seq %d, superseded by acknowledged seq %d", keyNames[key], seq, w+1)
		}
	}
	return nil
}

func (m *model) violate(err error) {
	m.violations.Add(1)
	m.mu.Lock()
	if m.first == nil {
		m.first = err
	}
	m.mu.Unlock()
}

// err returns the first violation, if any.
func (m *model) err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.first == nil {
		return nil
	}
	return fmt.Errorf("%d correctness violation(s), first: %w", m.violations.Load(), m.first)
}
