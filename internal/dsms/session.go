package dsms

// Session protocol (frame format v2) for fault-tolerant distributed
// evaluation. The v1 transport (transport.go) fail-stops on the first
// I/O error: one dropped TCP connection kills a standing query. The
// session layer adds what the 3-level architecture (slides 14, 54-55)
// needs to survive unreliable links between observation points and the
// high-level node: per-stream sequence numbers, a resume handshake, and
// in-band control frames (the punctuation-as-control-signal idea of
// slide 25 applied to the transport itself).
//
// Wire format. Every frame starts with a one-byte type:
//
//	client -> server
//	  'H' HELLO      uvarint len | streamID bytes | crc32(id)  (re)attach stream
//	  'D' DATA       uvarint seq | uvarint len | payload | crc32(seq,payload)
//	  'B' HEARTBEAT  (empty)                             liveness + ack request
//	  'E' EOS        uvarint finalSeq                    end of stream
//	server -> client
//	  'h' HELLOACK   uvarint lastSeq                     resume point
//	  'a' ACK        uvarint lastSeq                     cumulative ack
//	  'e' EOSACK     uvarint finalSeq                    stream complete
//
// Frame format v3 adds batched, schema-coded DATA (see tuple's batch
// codec for the payload layout) behind a version-negotiating handshake:
//
//	client -> server
//	  'W' HELLO3     uvarint ver | uvarint len | streamID | crc32(ver,id)
//	  'P' BATCH      uvarint firstSeq | uvarint count | uvarint len |
//	                 payload | crc32(firstSeq,payload)
//	server -> client
//	  'w' HELLO3ACK  uvarint grantedVer | uvarint lastSeq
//
// Sequence numbers still count tuples: a batch frame covers
// [firstSeq, firstSeq+count-1], so cumulative acks, resume and
// exactly-once dedupe are unchanged — a replayed batch that overlaps
// the applied prefix (reconnect-resume mid-batch) emits only its
// unseen suffix. A server that predates v3 treats 'W' as an unknown
// frame and drops the connection; the client interprets that as "speak
// v2" and redials with the old HELLO, so mixed-version deployments
// keep working. v2 'D' frames remain valid on a v3 connection.
//
// Control frames are request/response — the server only writes when
// asked, and answers in the order it was asked — but the client does
// not wait for each answer: it pipelines heartbeats behind its data and
// a per-connection reader consumes the cumulative acks (reconnect.go),
// so unread acks cannot fill the socket buffers either. Sequence
// numbers start at 1 and are contiguous; the server applies frame
// seq == lastSeq+1, discards seq <= lastSeq as a duplicate (replay
// after reconnect), and treats a gap or a corrupt frame as a dead
// connection — the client redials, the HELLOACK tells it the last
// sequence the server applied, and it resends only the tail. Delivery
// is exactly-once per stream as long as the client's replay buffer
// covers the unacknowledged window (it blocks before the bound is hit).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"streamdb/internal/tuple"
)

// Frame type bytes (v2).
const (
	frameHello     = 'H'
	frameData      = 'D'
	frameHeartbeat = 'B'
	frameEOS       = 'E'
	frameHelloAck  = 'h'
	frameAck       = 'a'
	frameEOSAck    = 'e'
)

// Frame type bytes (v3).
const (
	frameHello3    = 'W'
	frameHello3Ack = 'w'
	frameBatch     = 'P'
)

// Wire protocol versions.
const (
	wireV2 = 2
	wireV3 = 3
)

// maxStreamID bounds the HELLO identifier so a corrupt length varint
// cannot trigger a huge allocation.
const maxStreamID = 256

// maxFramePayload bounds DATA payloads for the same reason.
const maxFramePayload = 16 << 20

// maxBatchTuples bounds the tuple count a BATCH frame may claim.
const maxBatchTuples = 1 << 20

// hello3CRC covers the requested version and the stream identifier.
func hello3CRC(ver uint64, id []byte) uint32 {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], ver)
	c := crc32.Update(0, crc32.IEEETable, buf[:n])
	return crc32.Update(c, crc32.IEEETable, id)
}

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

// dataCRC covers the sequence number and the payload, so corruption
// anywhere in a DATA frame (type byte aside) is detected.
func dataCRC(seq uint64, payload []byte) uint32 {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], seq)
	c := crc32.Update(0, crc32.IEEETable, buf[:n])
	return crc32.Update(c, crc32.IEEETable, payload)
}

// writeDataFrame appends one DATA frame to w.
func writeDataFrame(w *bufio.Writer, seq uint64, payload []byte) error {
	if err := w.WriteByte(frameData); err != nil {
		return err
	}
	if err := writeUvarint(w, seq); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(len(payload))); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], dataCRC(seq, payload))
	_, err := w.Write(crc[:])
	return err
}

// writeBatchFrame appends one v3 BATCH frame to w. The CRC covers the
// first sequence number and the payload, like a DATA frame's.
func writeBatchFrame(w *bufio.Writer, firstSeq, count uint64, payload []byte) error {
	if err := w.WriteByte(frameBatch); err != nil {
		return err
	}
	if err := writeUvarint(w, firstSeq); err != nil {
		return err
	}
	if err := writeUvarint(w, count); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(len(payload))); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], dataCRC(firstSeq, payload))
	_, err := w.Write(crc[:])
	return err
}

// writeSeqFrame writes a control frame carrying one uvarint.
func writeSeqFrame(w *bufio.Writer, typ byte, seq uint64) error {
	if err := w.WriteByte(typ); err != nil {
		return err
	}
	return writeUvarint(w, seq)
}

// readSeqFrame reads the expected control frame type and its uvarint,
// failing on any other frame.
func readSeqFrame(r *bufio.Reader, want byte) (uint64, error) {
	typ, err := r.ReadByte()
	if err != nil {
		return 0, err
	}
	if typ != want {
		return 0, fmt.Errorf("dsms: expected frame %q, got %q", want, typ)
	}
	return binary.ReadUvarint(r)
}

// SessionConfig tunes the server side of the session protocol.
type SessionConfig struct {
	// IdleTimeout closes a connection that delivers no frame for this
	// long (dead-peer detection); the session itself survives for the
	// client to resume. 0 = default 30s, negative = disabled.
	IdleTimeout time.Duration
	// Logf, when non-nil, receives session churn events (attach,
	// resume, complete, connection errors).
	Logf func(format string, args ...interface{})
	// MaxWireVersion caps the protocol version the server grants. 0 or
	// 3 = full v3; 2 emulates a server that predates batch frames (the
	// HELLO3 frame is treated as unknown and drops the connection,
	// exactly as an old binary would).
	MaxWireVersion int
	// ZeroCopy recycles batch decode arenas through a pool: the tuples
	// passed to emit are only valid for the duration of the call. Leave
	// false when the consumer retains tuples (windows, joins, buffers).
	ZeroCopy bool
	// InitialSeqs seeds newly attached sessions' last-applied sequence
	// numbers: the replay positions recovered from a checkpoint. After a
	// crash the restarted server answers each stream's resume handshake
	// at its checkpointed position, so clients replay exactly the tail
	// the checkpoint has not made durable.
	InitialSeqs map[string]uint64
	// DurableSeq, when set, caps every acknowledged sequence number
	// (HELLOACK, HELLO3ACK, heartbeat ACK) at the stream's durable floor
	// — typically the last committed checkpoint's position. The client
	// then retains everything past the floor in its replay buffer, which
	// is what makes a crash recoverable: the restarted server can roll
	// the stream back to the checkpoint and the client still holds the
	// frames to replay. Already-applied replays are discarded as
	// duplicates, so delivery stays exactly-once.
	DurableSeq func(streamID string) uint64
}

func (c *SessionConfig) maxWire() int {
	if c.MaxWireVersion == 0 {
		return wireV3
	}
	return c.MaxWireVersion
}

func (c *SessionConfig) idle() time.Duration {
	switch {
	case c.IdleTimeout < 0:
		return 0
	case c.IdleTimeout == 0:
		return 30 * time.Second
	default:
		return c.IdleTimeout
	}
}

// SessionStats aggregates server-side protocol counters.
type SessionStats struct {
	Sessions   int64 // distinct streams attached
	Reconnects int64 // HELLOs for an already-known stream
	Frames     int64 // tuples applied (v2: one per DATA frame)
	Batches    int64 // v3 BATCH frames applied (at least one fresh tuple)
	Dupes      int64 // tuples discarded as replays
	Corrupt    int64 // frames rejected by CRC or parse failure
	Completed  int64 // streams that reached EOS
	V3Conns    int64 // connections negotiated to wire v3
}

// session is the durable per-stream state that outlives connections.
type session struct {
	mu        sync.Mutex
	id        string
	lastSeq   uint64
	dupes     int64
	completed bool
}

// SessionServer accepts reconnecting tuple streams and delivers each
// stream's tuples exactly once, in order.
type SessionServer struct {
	ln     net.Listener
	schema *tuple.Schema
	cfg    SessionConfig

	mu        sync.Mutex
	sessions  map[string]*session
	stats     SessionStats
	done      chan struct{}
	target    int
	emit      func(streamID string, t *tuple.Tuple)
	emitBatch func(streamID string, tuples []*tuple.Tuple, arena *tuple.Arena)
	arenas    *tuple.ArenaPool
}

// NewSessionServer wraps a listener; schema describes the tuples every
// stream carries.
func NewSessionServer(ln net.Listener, schema *tuple.Schema, cfg SessionConfig) *SessionServer {
	return &SessionServer{
		ln: ln, schema: schema, cfg: cfg,
		sessions: make(map[string]*session),
		done:     make(chan struct{}),
		arenas:   tuple.NewArenaPool(),
	}
}

// Stats returns a snapshot of the protocol counters.
func (s *SessionServer) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *SessionServer) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections until `streams` distinct streams have
// completed (EOS acknowledged), then returns. emit is called once per
// delivered tuple, in per-stream sequence order; calls for different
// streams may be concurrent.
func (s *SessionServer) Serve(streams int, emit func(streamID string, t *tuple.Tuple)) error {
	s.mu.Lock()
	s.target = streams
	s.emit = emit
	s.mu.Unlock()
	return s.serve(streams)
}

// ServeBatches is Serve with a batch-granular sink: v3 BATCH frames
// deliver their fresh tuples in one call, v2 DATA frames arrive as
// one-tuple slices. The slice is only valid for the duration of the
// call. Under SessionConfig.ZeroCopy the tuples alias the pooled decode
// arena passed alongside them: a sink that keeps them past the call
// must Retain the arena (and Release once done) or copy the tuples out
// before returning; arena is nil when the tuples are independently
// heap-allocated (v2 frames, ZeroCopy off) and no pinning is needed.
func (s *SessionServer) ServeBatches(streams int, emit func(streamID string, tuples []*tuple.Tuple, arena *tuple.Arena)) error {
	s.mu.Lock()
	s.target = streams
	s.emitBatch = emit
	s.mu.Unlock()
	return s.serve(streams)
}

func (s *SessionServer) serve(streams int) error {
	go func() {
		<-s.done
		s.ln.Close()
	}()
	var wg sync.WaitGroup
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handle(conn)
		}()
	}
	wg.Wait()
	select {
	case <-s.done:
		return nil
	default:
		return fmt.Errorf("dsms: listener closed before %d streams completed", streams)
	}
}

// attach resolves (or creates) the session for a HELLO and reads its
// resume point. The read takes the session's own lock: a connection the
// client has given up on may still be applying frames it had buffered.
func (s *SessionServer) attach(id string) (*session, uint64) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if !ok {
		sess = &session{id: id, lastSeq: s.cfg.InitialSeqs[id]}
		s.sessions[id] = sess
		s.stats.Sessions++
		if sess.lastSeq > 0 {
			s.logf("dsms: session %q attached at checkpointed seq %d", id, sess.lastSeq)
		} else {
			s.logf("dsms: session %q attached", id)
		}
	} else {
		s.stats.Reconnects++
	}
	s.mu.Unlock()
	sess.mu.Lock()
	last := sess.lastSeq
	sess.mu.Unlock()
	if ok {
		s.logf("dsms: session %q resumed at seq %d", id, last)
	}
	return sess, last
}

// ackFloor caps an acknowledged sequence number at the stream's
// durable floor, so clients keep un-checkpointed frames replayable.
func (s *SessionServer) ackFloor(sess *session, last uint64) uint64 {
	if s.cfg.DurableSeq == nil {
		return last
	}
	if d := s.cfg.DurableSeq(sess.id); d < last {
		return d
	}
	return last
}

// SessionSeqs snapshots every attached stream's last applied sequence
// number: the replay positions a checkpoint records in its metadata.
func (s *SessionServer) SessionSeqs() map[string]uint64 {
	s.mu.Lock()
	list := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		list = append(list, sess)
	}
	s.mu.Unlock()
	out := make(map[string]uint64, len(list))
	for _, sess := range list {
		sess.mu.Lock()
		out[sess.id] = sess.lastSeq
		sess.mu.Unlock()
	}
	return out
}

// complete records a finished stream, releasing Serve when the target
// count is reached.
func (s *SessionServer) complete(sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Completed++
	s.logf("dsms: session %q complete at seq %d", sess.id, sess.lastSeq)
	if s.target > 0 && s.stats.Completed == int64(s.target) {
		close(s.done)
	}
}

func (s *SessionServer) countCorrupt() {
	s.mu.Lock()
	s.stats.Corrupt++
	s.mu.Unlock()
}

// handle runs one connection's frame loop. Any protocol violation,
// corrupt frame, or I/O error simply drops the connection: the session
// state survives and the client resumes on its next dial.
func (s *SessionServer) handle(conn net.Conn) {
	defer conn.Close()
	idle := s.cfg.idle()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var sess *session
	var payload []byte
	wire := wireV2
	var scratch [1]*tuple.Tuple // v2 frames into the batch sink
	for {
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		typ, err := br.ReadByte()
		if err != nil {
			if sess != nil && err != io.EOF {
				s.logf("dsms: session %q connection lost: %v", sess.id, err)
			}
			return
		}
		switch typ {
		case frameHello:
			n, err := binary.ReadUvarint(br)
			if err != nil || n == 0 || n > maxStreamID {
				s.countCorrupt()
				return
			}
			idb := make([]byte, n)
			if _, err := io.ReadFull(br, idb); err != nil {
				s.countCorrupt()
				return
			}
			// The CRC keeps a corrupted HELLO from attaching a ghost
			// session: a flipped streamID byte would otherwise answer
			// HELLOACK 0 and accept replayed frames as fresh,
			// double-counting them into the merge.
			var crc [4]byte
			if _, err := io.ReadFull(br, crc[:]); err != nil ||
				binary.LittleEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(idb) {
				s.countCorrupt()
				return
			}
			var last uint64
			sess, last = s.attach(string(idb))
			if err := writeSeqFrame(bw, frameHelloAck, s.ackFloor(sess, last)); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}

		case frameHello3:
			if s.cfg.maxWire() < wireV3 {
				// Emulate a pre-v3 binary: unknown frame, drop the
				// connection. The client falls back to the v2 HELLO.
				s.countCorrupt()
				return
			}
			ver, err := binary.ReadUvarint(br)
			if err != nil {
				s.countCorrupt()
				return
			}
			n, err := binary.ReadUvarint(br)
			if err != nil || n == 0 || n > maxStreamID {
				s.countCorrupt()
				return
			}
			idb := make([]byte, n)
			if _, err := io.ReadFull(br, idb); err != nil {
				s.countCorrupt()
				return
			}
			var crc [4]byte
			if _, err := io.ReadFull(br, crc[:]); err != nil ||
				binary.LittleEndian.Uint32(crc[:]) != hello3CRC(ver, idb) {
				s.countCorrupt()
				return
			}
			granted := uint64(wireV3)
			if ver < granted {
				granted = ver
			}
			var last uint64
			sess, last = s.attach(string(idb))
			if err := bw.WriteByte(frameHello3Ack); err != nil {
				return
			}
			if err := writeUvarint(bw, granted); err != nil {
				return
			}
			if err := writeUvarint(bw, s.ackFloor(sess, last)); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
			wire = int(granted)
			if wire >= wireV3 {
				s.mu.Lock()
				s.stats.V3Conns++
				s.mu.Unlock()
			}

		case frameBatch:
			if sess == nil || wire < wireV3 {
				s.countCorrupt()
				return
			}
			firstSeq, err := binary.ReadUvarint(br)
			if err != nil {
				s.countCorrupt()
				return
			}
			count, err := binary.ReadUvarint(br)
			if err != nil || count == 0 || count > maxBatchTuples {
				s.countCorrupt()
				return
			}
			ln, err := binary.ReadUvarint(br)
			if err != nil || ln > maxFramePayload {
				s.countCorrupt()
				return
			}
			if uint64(cap(payload)) < ln {
				payload = make([]byte, ln)
			}
			payload = payload[:ln]
			if _, err := io.ReadFull(br, payload); err != nil {
				s.countCorrupt()
				return
			}
			var crc [4]byte
			if _, err := io.ReadFull(br, crc[:]); err != nil {
				s.countCorrupt()
				return
			}
			if binary.LittleEndian.Uint32(crc[:]) != dataCRC(firstSeq, payload) {
				s.countCorrupt()
				return
			}
			if !s.applyBatch(sess, firstSeq, count, payload) {
				return
			}

		case frameData:
			if sess == nil {
				s.countCorrupt()
				return
			}
			seq, err := binary.ReadUvarint(br)
			if err != nil {
				s.countCorrupt()
				return
			}
			ln, err := binary.ReadUvarint(br)
			if err != nil || ln > maxFramePayload {
				s.countCorrupt()
				return
			}
			if uint64(cap(payload)) < ln {
				payload = make([]byte, ln)
			}
			payload = payload[:ln]
			if _, err := io.ReadFull(br, payload); err != nil {
				s.countCorrupt()
				return
			}
			var crc [4]byte
			if _, err := io.ReadFull(br, crc[:]); err != nil {
				s.countCorrupt()
				return
			}
			if binary.LittleEndian.Uint32(crc[:]) != dataCRC(seq, payload) {
				s.countCorrupt()
				return
			}
			if !s.apply(sess, seq, payload, &scratch) {
				return
			}

		case frameHeartbeat:
			if sess == nil {
				s.countCorrupt()
				return
			}
			sess.mu.Lock()
			last := sess.lastSeq
			sess.mu.Unlock()
			if err := writeSeqFrame(bw, frameAck, s.ackFloor(sess, last)); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}

		case frameEOS:
			final, err := binary.ReadUvarint(br)
			if err != nil || sess == nil {
				s.countCorrupt()
				return
			}
			sess.mu.Lock()
			complete := sess.lastSeq == final
			already := sess.completed
			if complete {
				sess.completed = true
			}
			sess.mu.Unlock()
			if !complete {
				// Frames are missing (lost to corruption on the old
				// connection): drop the connection so the client's
				// resume handshake triggers the resend.
				return
			}
			if err := writeSeqFrame(bw, frameEOSAck, final); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
			if !already {
				s.complete(sess)
			}
			return

		default:
			s.countCorrupt()
			return
		}
	}
}

// apply delivers one DATA frame into the session: exactly-once by
// sequence number. Returns false when the connection must drop (gap or
// undecodable tuple).
func (s *SessionServer) apply(sess *session, seq uint64, payload []byte, scratch *[1]*tuple.Tuple) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	switch {
	case seq == sess.lastSeq+1:
		t, _, err := tuple.DecodeChecked(payload, s.schema)
		if err != nil {
			s.countCorrupt()
			return false
		}
		sess.lastSeq = seq
		s.mu.Lock()
		s.stats.Frames++
		emit := s.emit
		emitBatch := s.emitBatch
		s.mu.Unlock()
		if emitBatch != nil {
			scratch[0] = t
			emitBatch(sess.id, scratch[:], nil) // heap tuple: no arena to pin
			scratch[0] = nil
		} else if emit != nil {
			emit(sess.id, t)
		}
		return true
	case seq <= sess.lastSeq:
		sess.dupes++
		s.mu.Lock()
		s.stats.Dupes++
		s.mu.Unlock()
		return true
	default:
		// A gap means this connection lost frames; force a resume.
		s.countCorrupt()
		return false
	}
}

// applyBatch delivers one BATCH frame: tuples [firstSeq, firstSeq+
// count-1], exactly-once at tuple granularity. A batch fully behind the
// session's high-water mark is a replay; one that overlaps it (resume
// landed mid-batch) emits only the unseen suffix; a gap ahead of it
// forces a resume by dropping the connection.
func (s *SessionServer) applyBatch(sess *session, firstSeq, count uint64, payload []byte) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	lastOfBatch := firstSeq + count - 1
	switch {
	case lastOfBatch <= sess.lastSeq:
		sess.dupes += int64(count)
		s.mu.Lock()
		s.stats.Dupes += int64(count)
		s.mu.Unlock()
		return true
	case firstSeq > sess.lastSeq+1:
		s.countCorrupt()
		return false
	}
	arena := &tuple.Arena{}
	var pooled *tuple.Arena // handed to the sink so it can Retain
	if s.cfg.ZeroCopy {
		pooled = s.arenas.Get()
		arena = pooled
		// Put drops only the server's reference: a sink that Retained
		// the arena keeps the decoded tuples alive past this frame.
		defer s.arenas.Put(pooled)
	}
	ts, _, err := tuple.DecodeBatchInto(payload, s.schema, arena)
	if err != nil || uint64(len(ts)) != count {
		s.countCorrupt()
		return false
	}
	skip := sess.lastSeq + 1 - firstSeq // already-applied prefix, 0..count-1
	sess.lastSeq = lastOfBatch
	sess.dupes += int64(skip)
	fresh := ts[skip:]
	s.mu.Lock()
	s.stats.Frames += int64(len(fresh))
	s.stats.Dupes += int64(skip)
	s.stats.Batches++
	emit := s.emit
	emitBatch := s.emitBatch
	s.mu.Unlock()
	if emitBatch != nil {
		emitBatch(sess.id, fresh, pooled)
	} else if emit != nil {
		for _, t := range fresh {
			emit(sess.id, t)
		}
	}
	return true
}
