package dsms

// Session protocol for fault-tolerant distributed evaluation: the
// uplink from the observation points to the high-level node of the
// 3-level architecture (slides 14, 54-55). One dropped TCP connection
// must not kill a standing query, so the transport carries per-stream
// sequence numbers, a resume handshake, and in-band control frames (the
// punctuation-as-control-signal idea of slide 25 applied to the
// transport itself). Both ends share the stream's schema, so data
// frames carry schema-coded tuple batches (see tuple's batch codec for
// the payload layout) and never re-describe a value.
//
// Wire format. Every frame starts with a one-byte type:
//
//	client -> server
//	  'W' HELLO3     uvarint ver | uvarint len | streamID | crc32(ver,id)
//	                 (re)attach stream; ver must be 3
//	  'P' BATCH      uvarint firstSeq | uvarint count | uvarint len |
//	                 payload | crc32(firstSeq,payload)
//	  'B' HEARTBEAT  (empty)                           liveness + ack request
//	  'E' EOS        uvarint finalSeq                  end of stream
//	server -> client
//	  'w' HELLO3ACK  uvarint grantedVer | uvarint lastSeq   resume point
//	  'a' ACK        uvarint lastSeq                   cumulative ack
//	  'e' EOSACK     uvarint finalSeq                  stream complete
//
// Peers that predate this format (the per-tuple 'H'/'D' frames, or a
// HELLO3 asking for a version other than 3) are not accepted: the
// server treats them like any unknown frame and drops the connection.
//
// Sequence numbers count tuples, start at 1 and are contiguous: a batch
// frame covers [firstSeq, firstSeq+count-1]. The server applies the
// batch that starts at lastSeq+1, discards one wholly at or below
// lastSeq as a duplicate (replay after reconnect), emits only the unseen
// suffix of one that overlaps it (a resume that landed mid-batch), and
// treats a gap or a corrupt frame as a dead connection — the client
// redials, the HELLO3ACK tells it the last sequence the server applied,
// and it resends only the tail. Delivery is exactly-once per stream as
// long as the client's replay buffer covers the unacknowledged window
// (it blocks before the bound is hit).
//
// Control frames are request/response — the server only writes when
// asked, and answers in the order it was asked — but the client does
// not wait for each answer: it pipelines heartbeats behind its data and
// a per-connection reader consumes the cumulative acks (reconnect.go),
// so unread acks cannot fill the socket buffers either.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// Frame type bytes.
const (
	frameHello3    = 'W'
	frameHello3Ack = 'w'
	frameBatch     = 'P'
	frameHeartbeat = 'B'
	frameEOS       = 'E'
	frameAck       = 'a'
	frameEOSAck    = 'e'
)

// wireV3 is the protocol version HELLO3 requests and the server grants.
const wireV3 = 3

// maxStreamID bounds the HELLO3 identifier so a corrupt length varint
// cannot trigger a huge allocation.
const maxStreamID = 256

// maxFramePayload bounds BATCH payloads for the same reason.
const maxFramePayload = 16 << 20

// maxBatchTuples bounds the tuple count a BATCH frame may claim.
const maxBatchTuples = 1 << 20

// frameCRC is a frame's checksum: it covers a uvarint header field and
// the bytes that field heads — HELLO3's version and stream identifier,
// BATCH's first sequence number and payload (a corrupt BATCH count fails
// the decode's length check instead). scratch is room for the varint
// (capacity binary.MaxVarintLen64) that the caller keeps per connection:
// a local array would escape into crc32's indirect call and cost an
// allocation per frame.
func frameCRC(scratch []byte, head uint64, body []byte) uint32 {
	c := crc32.Update(0, crc32.IEEETable, binary.AppendUvarint(scratch[:0], head))
	return crc32.Update(c, crc32.IEEETable, body)
}

// spare returns w's unused buffer, empty and with room for at least one
// varint, flushing first if need be. Frame fields are appended to it and
// written in place, so writing a frame allocates nothing.
func spare(w *bufio.Writer) ([]byte, error) {
	if w.Available() < binary.MaxVarintLen64 {
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}
	return w.AvailableBuffer(), nil
}

func writeUvarint(w *bufio.Writer, v uint64) error {
	buf, err := spare(w)
	if err != nil {
		return err
	}
	_, err = w.Write(binary.AppendUvarint(buf, v))
	return err
}

// writeFrameCRC appends the frameCRC of head and body to w, using w's
// spare buffer as the scratch.
func writeFrameCRC(w *bufio.Writer, head uint64, body []byte) error {
	buf, err := spare(w)
	if err != nil {
		return err
	}
	_, err = w.Write(binary.LittleEndian.AppendUint32(buf, frameCRC(buf, head, body)))
	return err
}

// writeBatchFrame appends one BATCH frame to w.
func writeBatchFrame(w *bufio.Writer, firstSeq, count uint64, payload []byte) error {
	if err := w.WriteByte(frameBatch); err != nil {
		return err
	}
	for _, v := range [...]uint64{firstSeq, count, uint64(len(payload))} {
		if err := writeUvarint(w, v); err != nil {
			return err
		}
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return writeFrameCRC(w, firstSeq, payload)
}

// writeSeqFrame writes a control frame carrying one uvarint.
func writeSeqFrame(w *bufio.Writer, typ byte, seq uint64) error {
	if err := w.WriteByte(typ); err != nil {
		return err
	}
	return writeUvarint(w, seq)
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
	// ZeroCopy recycles ServeBatches' decode arenas through a pool: the
	// tuples passed to emit are only valid for the duration of the call.
	// Leave false when the consumer retains tuples (windows, joins,
	// buffers). A SessionSource decodes into column batches the engine
	// owns and is unaffected.
	ZeroCopy bool
	// InitialSeqs seeds newly attached sessions' last-applied sequence
	// numbers: the replay positions recovered from a checkpoint. After a
	// crash the restarted server answers each stream's resume handshake
	// at its checkpointed position, so clients replay exactly the tail
	// the checkpoint has not made durable.
	InitialSeqs map[string]uint64
	// DurableSeq, when set, caps every acknowledged sequence number
	// (HELLO3ACK, heartbeat ACK) at the stream's durable floor —
	// typically the last committed checkpoint's position. The client
	// then retains everything past the floor in its replay buffer, which
	// is what makes a crash recoverable: the restarted server can roll
	// the stream back to the checkpoint and the client still holds the
	// frames to replay. Already-applied replays are discarded as
	// duplicates, so delivery stays exactly-once.
	DurableSeq func(streamID string) uint64
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
	Reconnects int64 // HELLO3s for an already-known stream
	Frames     int64 // tuples applied
	Batches    int64 // BATCH frames applied (at least one fresh tuple)
	Dupes      int64 // tuples discarded as replays
	Corrupt    int64 // frames rejected: CRC, parse, gap, unknown type or version
	Completed  int64 // streams that reached EOS
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

	mu       sync.Mutex
	sessions map[string]*session
	stats    SessionStats
	done     chan struct{}
	target   int
	emit     func(streamID string, tuples []*tuple.Tuple, arena *tuple.Arena) // ServeBatches' sink
	emitCols func(streamID string, lastSeq uint64, b *stream.Batch)           // serveCols' sink
	cols     *stream.ColPool                                                  // serveCols' decode targets
	arenas   *tuple.ArenaPool
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
	var sink func(string, []*tuple.Tuple, *tuple.Arena)
	if emit != nil {
		sink = func(id string, tuples []*tuple.Tuple, _ *tuple.Arena) {
			for _, t := range tuples {
				emit(id, t)
			}
		}
	}
	return s.ServeBatches(streams, sink)
}

// ServeBatches is Serve with a batch-granular sink: each BATCH frame
// delivers its fresh tuples in one call, and a stream's completion is
// one more call with no tuples, after its last. The slice is only valid
// for the duration of the call. Under SessionConfig.ZeroCopy the tuples
// alias the pooled decode arena passed alongside them, which is recycled
// once the call returns: a sink that keeps them must copy them out
// first. arena is nil when the tuples are independently heap-allocated
// (ZeroCopy off).
func (s *SessionServer) ServeBatches(streams int, emit func(streamID string, tuples []*tuple.Tuple, arena *tuple.Arena)) error {
	s.mu.Lock()
	s.emit = emit
	s.mu.Unlock()
	return s.serve(streams)
}

// serveCols is ServeBatches with a column sink: each BATCH frame's
// fresh tuples are decoded column-major, straight into a batch from
// pool, and emit takes over the batch's reference along with the
// sequence number of the batch's last row. A stream's completion is one
// more call with a nil batch, after its last.
func (s *SessionServer) serveCols(streams int, pool *stream.ColPool, emit func(streamID string, lastSeq uint64, b *stream.Batch)) error {
	s.mu.Lock()
	s.emitCols, s.cols = emit, pool
	s.mu.Unlock()
	return s.serve(streams)
}

// serve accepts connections until `streams` distinct streams have
// completed, delivering to whichever sink is set.
func (s *SessionServer) serve(streams int) error {
	s.mu.Lock()
	s.target = streams
	s.mu.Unlock()
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

// attach resolves (or creates) the session for a HELLO3 and reads its
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

// complete records a finished stream: its sink gets the empty end call,
// then Serve is released when the target count is reached.
func (s *SessionServer) complete(sess *session, final uint64) {
	s.mu.Lock()
	emit, emitCols := s.emit, s.emitCols
	s.mu.Unlock()
	switch {
	case emitCols != nil:
		emitCols(sess.id, final, nil)
	case emit != nil:
		emit(sess.id, nil, nil)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Completed++
	s.logf("dsms: session %q complete at seq %d", sess.id, final)
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
	crcScratch := make([]byte, 0, binary.MaxVarintLen64)
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
		case frameHello3:
			// Version 3 is the only wire: a peer asking for another is
			// treated like any unknown frame. Checking before the id
			// also stops a corrupted version byte, which swallows the
			// length that follows it, from leaving the handshake
			// waiting for id bytes that never come.
			ver, err := binary.ReadUvarint(br)
			if err != nil || ver != wireV3 {
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
			// The CRC keeps a corrupted HELLO3 from attaching a ghost
			// session: a flipped streamID byte would otherwise answer
			// resume point 0 and accept replayed frames as fresh,
			// double-counting them into the merge.
			var crc [4]byte
			if _, err := io.ReadFull(br, crc[:]); err != nil ||
				binary.LittleEndian.Uint32(crc[:]) != frameCRC(crcScratch, ver, idb) {
				s.countCorrupt()
				return
			}
			var last uint64
			sess, last = s.attach(string(idb))
			if err := bw.WriteByte(frameHello3Ack); err != nil {
				return
			}
			if err := writeUvarint(bw, wireV3); err != nil {
				return
			}
			if err := writeUvarint(bw, s.ackFloor(sess, last)); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}

		case frameBatch:
			if sess == nil {
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
			// Payload and CRC are read together into the connection's
			// reused buffer: a separate CRC array would escape into
			// ReadFull and cost an allocation per frame.
			if uint64(cap(payload)) < ln+4 {
				payload = make([]byte, ln+4)
			}
			frame := payload[:ln+4]
			if _, err := io.ReadFull(br, frame); err != nil {
				s.countCorrupt()
				return
			}
			body := frame[:ln]
			if binary.LittleEndian.Uint32(frame[ln:]) != frameCRC(crcScratch, firstSeq, body) {
				s.countCorrupt()
				return
			}
			if !s.applyBatch(sess, firstSeq, count, body) {
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
				s.complete(sess, final)
			}
			return

		default:
			s.countCorrupt()
			return
		}
	}
}

// applyBatch delivers one BATCH frame: tuples [firstSeq, firstSeq+
// count-1], exactly-once at tuple granularity. A batch fully behind the
// session's high-water mark is a replay; one that overlaps it (resume
// landed mid-batch) emits only the unseen suffix; a gap ahead of it
// forces a resume by dropping the connection. The column sink gets the
// frame decoded into a pooled batch, the row sink into an arena. Either
// runs under the session's lock: that keeps a stream's deliveries in
// sequence order when a stale connection and its replacement race, and
// lets a sink that blocks (a full SessionSource queue) hold the stream's
// transport back.
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
	skip := sess.lastSeq + 1 - firstSeq // already-applied prefix, 0..count-1
	s.mu.Lock()
	emit, emitCols := s.emit, s.emitCols
	s.mu.Unlock()

	var b *stream.Batch
	var fresh []*tuple.Tuple
	var pooled *tuple.Arena // the arena fresh aliases, for the sink
	if emitCols != nil {
		b = s.cols.Get()
		var err error
		b.Ts, _, err = tuple.DecodeBatchCols(payload, s.schema, b.Ts, b.Cols)
		if err != nil || uint64(b.Rows()) != count {
			b.Release()
			s.countCorrupt()
			return false
		}
		trimHead(b, int(skip))
	} else {
		arena := &tuple.Arena{}
		if s.cfg.ZeroCopy {
			pooled = s.arenas.Get()
			arena = pooled
			defer s.arenas.Put(pooled)
		}
		ts, _, err := tuple.DecodeBatchInto(payload, s.schema, arena)
		if err != nil || uint64(len(ts)) != count {
			s.countCorrupt()
			return false
		}
		fresh = ts[skip:]
	}
	sess.lastSeq = lastOfBatch
	sess.dupes += int64(skip)
	s.mu.Lock()
	s.stats.Frames += int64(count - skip)
	s.stats.Dupes += int64(skip)
	s.stats.Batches++
	s.mu.Unlock()
	switch {
	case b != nil:
		emitCols(sess.id, lastOfBatch, b)
	case emit != nil:
		emit(sess.id, fresh, pooled)
	}
	return true
}

// trimHead drops a batch's first n rows in place — the already-applied
// prefix of a frame a resume landed inside — zeroing the vacated tail
// so the pooled storage pins no string.
func trimHead(b *stream.Batch, n int) {
	if n == 0 {
		return
	}
	keep := copy(b.Ts, b.Ts[n:])
	b.Ts = b.Ts[:keep]
	for c, col := range b.Cols {
		copy(col, col[n:])
		clear(col[keep:])
		b.Cols[c] = col[:keep]
	}
}
