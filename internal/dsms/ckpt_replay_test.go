package dsms

// Crash-restart replay through the session protocol: a server that
// acknowledges only up to a durable checkpoint floor (DurableSeq) keeps
// clients holding the un-checkpointed tail in their replay buffers, so
// a restarted server seeded at the floor (InitialSeqs) receives exactly
// that tail again — no loss, no duplicates past the floor.

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamdb/internal/tuple"
)

func TestSessionCrashRestartReplaysFromCheckpoint(t *testing.T) {
	const (
		ckptEvery  = 50  // checkpoint floor granularity (tuples)
		preCrash   = 137 // tuples sent before the crash
		total      = 300
		floorAtCut = 100 // preCrash/ckptEvery*ckptEvery
	)

	// Server A: acks capped at the moving checkpoint floor.
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var deliveredA atomic.Uint64
	var muA sync.Mutex
	var gotA []*tuple.Tuple
	srvA := NewSessionServer(lnA, sch, SessionConfig{
		DurableSeq: func(string) uint64 {
			return deliveredA.Load() / ckptEvery * ckptEvery
		},
	})
	go srvA.Serve(1, func(id string, tp *tuple.Tuple) {
		muA.Lock()
		gotA = append(gotA, tp)
		muA.Unlock()
		deliveredA.Add(1)
	})

	// Server B: the restart, seeded at the checkpointed floor.
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var muB sync.Mutex
	var gotB []*tuple.Tuple
	srvB := NewSessionServer(lnB, sch, SessionConfig{
		InitialSeqs: map[string]uint64{"s1": floorAtCut},
	})
	doneB := make(chan error, 1)
	go func() {
		doneB <- srvB.Serve(1, func(id string, tp *tuple.Tuple) {
			muB.Lock()
			gotB = append(gotB, tp)
			muB.Unlock()
		})
	}()

	var addr atomic.Value
	addr.Store(lnA.Addr().String())
	var connMu sync.Mutex
	var lastConn net.Conn
	w, err := NewReconnectWriter(ReconnectConfig{
		StreamID: "s1",
		Schema:   sch,
		Dial: func() (net.Conn, error) {
			c, err := net.Dial("tcp", addr.Load().(string))
			if err != nil {
				return nil, err
			}
			connMu.Lock()
			lastConn = c
			connMu.Unlock()
			return c, nil
		},
		AckEvery:    8,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Timeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	sent := mkTuples(total)
	for _, tp := range sent[:preCrash] {
		if err := w.Send(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Let server A finish applying, so the checkpoint floor reaches
	// floorAtCut before the crash.
	deadline := time.Now().Add(5 * time.Second)
	for deliveredA.Load() < preCrash {
		if time.Now().After(deadline) {
			t.Fatalf("server A applied %d of %d", deliveredA.Load(), preCrash)
		}
		time.Sleep(time.Millisecond)
	}

	// Crash: server A vanishes, the client's connection dies, and every
	// reconnect from now on reaches the restarted server B.
	addr.Store(lnB.Addr().String())
	lnA.Close()
	connMu.Lock()
	lastConn.Close()
	connMu.Unlock()

	for _, tp := range sent[preCrash:] {
		if err := w.Send(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-doneB; err != nil {
		t.Fatalf("server B: %v", err)
	}

	// Server B must hold exactly the tail past the checkpoint floor:
	// the client's replay buffer still had floorAtCut+1..preCrash
	// because server A never acknowledged past the floor.
	muB.Lock()
	defer muB.Unlock()
	if len(gotB) != total-floorAtCut {
		t.Fatalf("server B delivered %d tuples, want %d", len(gotB), total-floorAtCut)
	}
	if !bytes.Equal(encodeAll(gotB), encodeAll(sent[floorAtCut:])) {
		t.Fatal("replayed tail differs from sent (loss or reorder across the crash)")
	}
	// Stitched delivery: A's checkpointed prefix + B's replayed tail is
	// the whole stream exactly once.
	muA.Lock()
	prefix := append([]*tuple.Tuple(nil), gotA[:floorAtCut]...)
	muA.Unlock()
	whole := append(prefix, gotB...)
	if !bytes.Equal(encodeAll(whole), encodeAll(sent)) {
		t.Fatal("checkpoint prefix + replayed tail != original stream")
	}
	if w.Stats().Reconnects == 0 {
		t.Error("client never reconnected; crash was not exercised")
	}
}
