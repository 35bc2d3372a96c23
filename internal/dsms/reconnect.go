package dsms

// Client side of the session protocol (session.go): a writer that rides
// out connection loss and delivers each tuple exactly once.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"streamdb/internal/tuple"
)

// ErrWriterClosed is returned by Send after Close.
var ErrWriterClosed = errors.New("dsms: writer closed")

// ReconnectConfig tunes the client side of the session protocol.
type ReconnectConfig struct {
	// StreamID names this stream to the server; reconnects under the
	// same ID resume the same session. Required.
	StreamID string
	// Dial opens a connection to the high-level node. Required.
	Dial func() (net.Conn, error)
	// MaxAttempts bounds consecutive failed connection attempts (and
	// reconnect-retry rounds per operation) before Send/Flush/Close
	// give up. 0 = default 8.
	MaxAttempts int
	// BaseBackoff is the first retry delay; it doubles per attempt up
	// to MaxBackoff, with ±50% jitter. Defaults 10ms / 1s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Timeout is the per-operation write/read deadline. 0 = default 5s.
	Timeout time.Duration
	// AckEvery is the heartbeat cadence: after this many tuples the
	// writer asks for a cumulative ack. It does not wait for the answer —
	// a per-connection reader trims the replay buffer as acks arrive —
	// until ackWindow heartbeats are unanswered, so the in-memory replay
	// buffer holds at most ackWindow × AckEvery tuples plus one frame
	// (a server acking only up to a DurableSeq floor keeps more: see
	// SessionConfig.DurableSeq). 0 = default 64.
	AckEvery int
	// Seed drives the backoff jitter (deterministic tests). 0 = 1.
	Seed int64
	// Schema describes the tuples the stream carries; every frame is
	// schema-coded against it, and the server must hold the same one.
	// Required.
	Schema *tuple.Schema
	// WireBatch > 1 coalesces consecutive Sends into batch frames of up
	// to this many tuples; 0 or 1 frames each Send on its own. A
	// partially filled batch is flushed by FlushInterval, by Flush or
	// Close, or by reaching the AckEvery cadence.
	WireBatch int
	// FlushInterval bounds how long a partially filled auto-batch may
	// wait for more tuples. 0 = default 5ms; negative = size-only
	// flushing (tests, bulk loads).
	FlushInterval time.Duration
}

func (c *ReconnectConfig) fill() ReconnectConfig {
	out := *c
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 8
	}
	if out.BaseBackoff <= 0 {
		out.BaseBackoff = 10 * time.Millisecond
	}
	if out.MaxBackoff <= 0 {
		out.MaxBackoff = time.Second
	}
	if out.Timeout <= 0 {
		out.Timeout = 5 * time.Second
	}
	if out.AckEvery <= 0 {
		out.AckEvery = 64
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.FlushInterval == 0 {
		out.FlushInterval = 5 * time.Millisecond
	}
	return out
}

// ReconnectStats counts the client's protocol activity.
type ReconnectStats struct {
	Sent        int64 // distinct tuples accepted by Send/SendBatch
	Resent      int64 // replayed tuples after reconnects
	Reconnects  int64 // successful re-dials after a failure
	Syncs       int64 // heartbeats answered by a cumulative ack
	Bytes       int64 // frame bytes written (including replays)
	MaxBuffered int   // high-water mark of the replay buffer, in tuples
	// RecoveryNanos accumulates time from a detected connection
	// failure to the completed resume handshake; divide by Reconnects
	// for mean recovery latency.
	RecoveryNanos int64
}

// ackWindow is how many heartbeats may be unanswered before Send blocks.
// It counts heartbeats, not tuples: a server that acknowledges only up
// to a durable floor still answers every heartbeat, so the sender keeps
// going while the floor stands still.
const ackWindow = 16

// maxFreePayloads bounds the freelist of trimmed frame payload buffers:
// a window of AckEvery-sized frames in flight plus the one being framed.
const maxFreePayloads = ackWindow + 1

// pendingFrame is one unacknowledged BATCH frame spanning sequence
// numbers [seq, seq+count-1].
type pendingFrame struct {
	seq     uint64
	count   int
	payload []byte
}

// ReconnectWriter ships tuples under the session protocol: it rides
// out connection loss with dial retry + exponential backoff + jitter,
// bounds every network operation with a deadline, and keeps
// unacknowledged frames in a bounded replay buffer keyed by sequence
// number so that after the resume handshake the server sees each tuple
// exactly once.
//
// Acks are pipelined: every frame goes to the socket as soon as it is
// framed, a heartbeat follows every AckEvery tuples, and a reader
// goroutine per connection consumes the answers. The sender waits only
// while ackWindow heartbeats are unanswered; a connection that answers
// none of them within Timeout is dropped and the unacknowledged tail
// replayed on the next one.
//
// It is safe for concurrent use; sequence numbers are assigned under
// the writer's lock in Send order.
type ReconnectWriter struct {
	cfg ReconnectConfig

	mu            sync.Mutex
	cond          *sync.Cond // signalled on every ack and every connection loss
	rng           *rand.Rand
	conn          net.Conn
	bw            *bufio.Writer
	nextSeq       uint64
	buffer        []pendingFrame // unacked frames, ascending seq
	buffered      int            // tuples in buffer
	free          [][]byte       // payload buffers of trimmed frames
	sinceSync     int            // tuples written to conn since the last heartbeat
	inflight      int            // heartbeats unanswered on conn
	eosSent       bool           // EOS written on conn
	eosAcked      bool           // and answered
	closed        bool
	finished      bool // Close has returned: no further dials
	everConnected bool
	failedAt      time.Time // when the current outage began (zero = healthy)
	linkErr       error     // why the last connection was dropped
	stats         ReconnectStats
	readers       sync.WaitGroup // ack readers, one per connection ever opened

	// Auto-batching state (WireBatch > 1).
	open       []*tuple.Tuple // tuples not yet framed
	flushTimer *time.Timer
	asyncErr   error // failure from a timer-driven flush
}

// NewReconnectWriter builds a writer; the first connection is dialed
// lazily on the first Send.
func NewReconnectWriter(cfg ReconnectConfig) (*ReconnectWriter, error) {
	if cfg.StreamID == "" {
		return nil, errors.New("dsms: ReconnectConfig.StreamID required")
	}
	if cfg.Dial == nil {
		return nil, errors.New("dsms: ReconnectConfig.Dial required")
	}
	if cfg.Schema == nil {
		return nil, errors.New("dsms: ReconnectConfig.Schema required")
	}
	f := cfg.fill()
	w := &ReconnectWriter{cfg: f, rng: rand.New(rand.NewSource(f.Seed))}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// Stats returns a snapshot of the client counters.
func (w *ReconnectWriter) Stats() ReconnectStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Buffered reports unacknowledged tuples currently held for replay
// (open auto-batch tuples not yet framed are excluded).
func (w *ReconnectWriter) Buffered() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buffered
}

// takeAsyncErrLocked surfaces a failure from a timer-driven flush on
// the next foreground operation.
func (w *ReconnectWriter) takeAsyncErrLocked() error {
	err := w.asyncErr
	w.asyncErr = nil
	return err
}

// Send transmits one tuple, transparently reconnecting and replaying on
// failure. With WireBatch > 1 the tuple is coalesced into an open batch
// instead of hitting the wire immediately. It returns an error only
// when connection attempts are exhausted (the link is down for good) or
// the writer is closed.
func (w *ReconnectWriter) Send(t *tuple.Tuple) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWriterClosed
	}
	if err := w.takeAsyncErrLocked(); err != nil {
		return err
	}
	if w.cfg.WireBatch > 1 {
		w.open = append(w.open, t)
		w.stats.Sent++
		if len(w.open) >= w.cfg.WireBatch {
			return w.flushOpenLocked()
		}
		w.armTimerLocked()
		return nil
	}
	w.stats.Sent++
	var one [1]*tuple.Tuple
	one[0] = t
	return w.enqueueLocked(one[:])
}

// SendBatch transmits a batch of tuples as one frame (one sequence
// span, one CRC, one length header).
func (w *ReconnectWriter) SendBatch(tuples []*tuple.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWriterClosed
	}
	if err := w.takeAsyncErrLocked(); err != nil {
		return err
	}
	// Preserve Send/SendBatch ordering: frame the open auto-batch first.
	if err := w.flushOpenLocked(); err != nil {
		return err
	}
	w.stats.Sent += int64(len(tuples))
	return w.enqueueLocked(tuples)
}

// payloadBufLocked returns an empty buffer to encode a frame into,
// reusing a trimmed frame's when one is free.
func (w *ReconnectWriter) payloadBufLocked() []byte {
	if n := len(w.free); n > 0 {
		buf := w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		return buf[:0]
	}
	return nil
}

// enqueueLocked assigns sequence numbers, frames the tuples as one
// BATCH frame, appends it to the replay buffer, puts them on the wire — followed by a heartbeat when the
// AckEvery cadence is due — and waits only while the ack window is full.
func (w *ReconnectWriter) enqueueLocked(tuples []*tuple.Tuple) error {
	payload, err := tuple.AppendEncodeBatch(w.payloadBufLocked(), w.cfg.Schema, tuples)
	if err != nil {
		return err
	}
	start := len(w.buffer)
	w.buffer = append(w.buffer, pendingFrame{seq: w.nextSeq + 1, count: len(tuples), payload: payload})
	w.nextSeq += uint64(len(tuples))
	w.buffered += len(tuples)
	if w.buffered > w.stats.MaxBuffered {
		w.stats.MaxBuffered = w.buffered
	}
	if w.conn != nil {
		// A dead connection (nil here, or failed below) is redialed by
		// awaitLocked, and connectLocked replays the whole buffer,
		// these frames included.
		if err := w.shipLocked(start, false); err != nil {
			w.failLocked(err)
		}
	}
	if w.conn != nil && w.inflight < ackWindow {
		return nil // the usual case: frame out, window open
	}
	return w.awaitLocked("sync", nil, func() bool { return w.inflight < ackWindow })
}

// shipLocked writes buffer[start:] to the socket, a heartbeat behind
// every AckEvery tuples. Nothing stays in the bufio buffer: a frame
// held back for the next one would add the sender's inter-frame gap to
// every tuple's latency.
func (w *ReconnectWriter) shipLocked(start int, resent bool) error {
	for i := start; i < len(w.buffer); i++ {
		f := &w.buffer[i]
		if err := w.writeFrameLocked(f); err != nil {
			return err
		}
		if resent {
			w.stats.Resent += int64(f.count)
		}
		if w.sinceSync += f.count; w.sinceSync >= w.cfg.AckEvery {
			if err := w.heartbeatLocked(); err != nil {
				return err
			}
		}
	}
	return w.bw.Flush()
}

// heartbeatLocked queues an ack request behind the frames written so
// far (the caller flushes). The first unanswered one arms the reader's
// deadline.
func (w *ReconnectWriter) heartbeatLocked() error {
	if err := w.bw.WriteByte(frameHeartbeat); err != nil {
		return err
	}
	w.inflight++
	// Keep the remainder, so heartbeats stay AckEvery tuples apart on
	// average when frames do not divide the cadence.
	w.sinceSync %= w.cfg.AckEvery
	if w.inflight == 1 {
		w.armReadDeadlineLocked()
	}
	return nil
}

// armReadDeadlineLocked gives the server Timeout to answer whatever is
// outstanding; an idle connection has no deadline.
func (w *ReconnectWriter) armReadDeadlineLocked() {
	var d time.Time
	if w.inflight > 0 || w.eosSent {
		d = time.Now().Add(w.cfg.Timeout)
	}
	w.conn.SetReadDeadline(d)
}

// flushOpenLocked frames the open auto-batch, if any.
func (w *ReconnectWriter) flushOpenLocked() error {
	if len(w.open) == 0 {
		return nil
	}
	// Detach the batch first: enqueueLocked may wait for the ack window
	// with the lock released, and a concurrent Send must start a new one.
	tuples := w.open
	w.open = nil
	err := w.enqueueLocked(tuples)
	// enqueueLocked copied the tuples into encoded payloads; the
	// accumulation slice can be reused.
	for i := range tuples {
		tuples[i] = nil
	}
	if w.open == nil {
		w.open = tuples[:0]
	}
	return err
}

// armTimerLocked schedules a deadline flush for a partially filled
// auto-batch so low-rate streams are not delayed indefinitely.
func (w *ReconnectWriter) armTimerLocked() {
	if w.cfg.FlushInterval <= 0 || w.flushTimer != nil {
		return
	}
	w.flushTimer = time.AfterFunc(w.cfg.FlushInterval, func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.flushTimer = nil
		if w.closed || len(w.open) == 0 {
			return
		}
		if err := w.flushOpenLocked(); err != nil && w.asyncErr == nil {
			w.asyncErr = err
		}
	})
}

// Flush pushes buffered frames to the wire and waits for the server to
// answer a heartbeat sent behind the last of them.
func (w *ReconnectWriter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWriterClosed
	}
	if err := w.takeAsyncErrLocked(); err != nil {
		return err
	}
	if err := w.flushOpenLocked(); err != nil {
		return err
	}
	if w.conn == nil && len(w.buffer) == 0 && !w.everConnected {
		return nil
	}
	return w.awaitLocked("flush", w.syncLocked, func() bool { return w.inflight == 0 })
}

// syncLocked asks for an ack of everything written so far, now.
func (w *ReconnectWriter) syncLocked() error {
	w.conn.SetWriteDeadline(time.Now().Add(w.cfg.Timeout))
	if err := w.heartbeatLocked(); err != nil {
		return err
	}
	return w.bw.Flush()
}

// Close completes the stream: it delivers any unacknowledged frames,
// performs the EOS handshake (so the server knows the stream is whole),
// closes the connection and waits for the ack readers to exit.
func (w *ReconnectWriter) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrWriterClosed
	}
	w.closed = true
	if w.flushTimer != nil {
		w.flushTimer.Stop()
		w.flushTimer = nil
	}
	err := w.takeAsyncErrLocked()
	if err == nil {
		err = w.flushOpenLocked()
	}
	if err == nil {
		err = w.awaitLocked("EOS", w.sendEOSLocked, func() bool { return w.eosAcked })
	}
	w.finished = true
	w.dropConnLocked()
	w.mu.Unlock()
	// Every connection this writer opened is closed by now, so each
	// reader's pending read fails and it exits.
	w.readers.Wait()
	return err
}

// awaitLocked waits, with the lock released, until done reports true on
// a live connection. Whenever the connection is lost — before the call,
// while send runs, or while waiting — it redials (which replays the
// unacknowledged tail) and starts over; send, when non-nil, is what the
// wait is for and is repeated on each new connection. Each round's
// reconnect is itself bounded by MaxAttempts consecutive dial failures,
// so a dead link terminates.
func (w *ReconnectWriter) awaitLocked(what string, send func() error, done func() bool) error {
	for round := 0; round < w.cfg.MaxAttempts; round++ {
		if w.conn == nil {
			if w.finished {
				return ErrWriterClosed
			}
			if err := w.connectLocked(); err != nil {
				return err
			}
		}
		if send != nil {
			if err := send(); err != nil {
				w.failLocked(err)
				continue
			}
		}
		for w.conn != nil && !done() {
			w.cond.Wait()
		}
		if w.conn != nil {
			return nil
		}
	}
	return fmt.Errorf("dsms: %s: %s failed after %d rounds: %w",
		w.cfg.StreamID, what, w.cfg.MaxAttempts, w.linkErr)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// writeFrameLocked writes one pending frame with a write deadline,
// counting the wire bytes.
func (w *ReconnectWriter) writeFrameLocked(f *pendingFrame) error {
	w.conn.SetWriteDeadline(time.Now().Add(w.cfg.Timeout))
	if err := writeBatchFrame(w.bw, f.seq, uint64(f.count), f.payload); err != nil {
		return err
	}
	w.stats.Bytes += int64(1 + uvarintLen(f.seq) + uvarintLen(uint64(f.count)) +
		uvarintLen(uint64(len(f.payload))) + len(f.payload) + 4)
	return nil
}

// sendEOSLocked starts the end-of-stream handshake on the current
// connection; the reader completes it.
func (w *ReconnectWriter) sendEOSLocked() error {
	w.conn.SetWriteDeadline(time.Now().Add(w.cfg.Timeout))
	if err := writeSeqFrame(w.bw, frameEOS, w.nextSeq); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	w.eosSent = true
	w.armReadDeadlineLocked()
	return nil
}

// readAcks is one connection's reader: it applies the server's answers
// (cumulative ACKs in heartbeat order, then the EOSACK) until the
// connection fails, is superseded or the stream is complete. A read
// that fails — the deadline armed by the oldest unanswered request
// included — drops the connection, which wakes any waiting sender into
// a reconnect.
func (w *ReconnectWriter) readAcks(conn net.Conn, br *bufio.Reader) {
	defer w.readers.Done()
	for {
		typ, err := br.ReadByte()
		var seq uint64
		if err == nil {
			seq, err = binary.ReadUvarint(br)
		}
		w.mu.Lock()
		if w.conn != conn {
			w.mu.Unlock()
			return // superseded: the sender already closed this connection
		}
		if err == nil {
			err = w.applyAckLocked(typ, seq)
		}
		if err != nil {
			w.failLocked(err)
		}
		complete := w.eosAcked
		w.cond.Broadcast()
		w.mu.Unlock()
		if err != nil || complete {
			return
		}
	}
}

// applyAckLocked consumes one server frame: a cumulative ack trims the
// replay buffer and opens the window by one heartbeat.
func (w *ReconnectWriter) applyAckLocked(typ byte, seq uint64) error {
	switch {
	case typ == frameAck && w.inflight > 0:
		w.inflight--
		w.stats.Syncs++
		w.trimLocked(seq)
		w.armReadDeadlineLocked()
		return nil
	case typ == frameEOSAck && w.eosSent && w.inflight == 0:
		if seq != w.nextSeq {
			return fmt.Errorf("dsms: EOS acked %d, want %d", seq, w.nextSeq)
		}
		w.trimLocked(seq)
		w.eosAcked = true
		return nil
	}
	return fmt.Errorf("dsms: unexpected frame %q from server", typ)
}

// trimLocked drops replay-buffer frames whose whole sequence span is
// acknowledged, keeping their payload buffers for reuse. Acks land on
// frame boundaries (the server applies a batch atomically), so a frame
// is either fully acked or fully kept.
func (w *ReconnectWriter) trimLocked(seq uint64) {
	i := 0
	for i < len(w.buffer) && w.buffer[i].seq+uint64(w.buffer[i].count)-1 <= seq {
		w.buffered -= w.buffer[i].count
		if len(w.free) < maxFreePayloads {
			w.free = append(w.free, w.buffer[i].payload)
		}
		i++
	}
	if i > 0 {
		n := copy(w.buffer, w.buffer[i:])
		for j := n; j < len(w.buffer); j++ {
			w.buffer[j] = pendingFrame{} // the freelist owns the payload now
		}
		w.buffer = w.buffer[:n]
	}
}

// dropConnLocked closes the current connection, if any, forgets what
// was outstanding on it and wakes whoever was waiting for it. Its
// reader exits on its own.
func (w *ReconnectWriter) dropConnLocked() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
	w.bw = nil
	w.inflight = 0
	w.eosSent = false
	w.cond.Broadcast()
}

// failLocked drops the current connection after a failed operation.
func (w *ReconnectWriter) failLocked(err error) {
	w.linkErr = err
	w.dropConnLocked()
}

// connectLocked dials with exponential backoff + jitter, performs the
// resume handshake, trims the replay buffer to the server's last
// applied sequence, replays the rest, and starts the connection's ack
// reader.
func (w *ReconnectWriter) connectLocked() error {
	resuming := w.everConnected
	if resuming && w.failedAt.IsZero() {
		// The outage clock starts when a sender needs the link, not when
		// the reader saw an idle connection close.
		w.failedAt = time.Now()
	}
	var lastErr error
	for attempt := 0; attempt < w.cfg.MaxAttempts; attempt++ {
		if attempt > 0 || !w.failedAt.IsZero() {
			w.sleepBackoff(attempt)
		}
		conn, err := w.cfg.Dial()
		if err != nil {
			lastErr = err
			continue
		}
		bw := bufio.NewWriter(conn)
		br := bufio.NewReader(conn)
		last, err := handshake(conn, bw, br, w.cfg.StreamID, w.cfg.Timeout)
		if err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		w.conn, w.bw = conn, bw
		w.trimLocked(last)
		// Replay the unacknowledged tail. A failure here burns the
		// same attempt budget.
		if err := w.replayLocked(resuming); err != nil {
			w.dropConnLocked()
			lastErr = err
			continue
		}
		w.armReadDeadlineLocked() // the handshake's deadline no longer applies
		w.readers.Add(1)
		go w.readAcks(conn, br)
		if !w.failedAt.IsZero() {
			w.stats.RecoveryNanos += time.Since(w.failedAt).Nanoseconds()
			w.failedAt = time.Time{}
			w.stats.Reconnects++
		}
		w.everConnected = true
		return nil
	}
	return fmt.Errorf("dsms: %s: connect failed after %d attempts: %w",
		w.cfg.StreamID, w.cfg.MaxAttempts, lastErr)
}

// replayLocked rewrites every buffered frame on the fresh connection,
// with heartbeats at the cadence the frames first went out at: none sent
// on an earlier connection will be answered on this one.
func (w *ReconnectWriter) replayLocked(countResent bool) error {
	w.sinceSync = 0
	return w.shipLocked(0, countResent)
}

// sleepBackoff waits base*2^attempt capped at max, jittered ±50%.
func (w *ReconnectWriter) sleepBackoff(attempt int) {
	d := w.cfg.BaseBackoff << uint(attempt)
	if d > w.cfg.MaxBackoff || d <= 0 {
		d = w.cfg.MaxBackoff
	}
	jitter := 0.5 + w.rng.Float64() // 0.5x .. 1.5x
	time.Sleep(time.Duration(float64(d) * jitter))
}

// handshake sends HELLO3 and returns the server's resume point.
func handshake(conn net.Conn, bw *bufio.Writer, br *bufio.Reader, id string, timeout time.Duration) (last uint64, err error) {
	conn.SetWriteDeadline(time.Now().Add(timeout))
	if err := bw.WriteByte(frameHello3); err != nil {
		return 0, err
	}
	if err := writeUvarint(bw, wireV3); err != nil {
		return 0, err
	}
	if err := writeUvarint(bw, uint64(len(id))); err != nil {
		return 0, err
	}
	if _, err := bw.WriteString(id); err != nil {
		return 0, err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], hello3CRC(wireV3, []byte(id)))
	if _, err := bw.Write(crc[:]); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	typ, err := br.ReadByte()
	if err != nil {
		return 0, err
	}
	if typ != frameHello3Ack {
		return 0, fmt.Errorf("dsms: expected frame %q, got %q", frameHello3Ack, typ)
	}
	granted, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	if granted != wireV3 {
		return 0, fmt.Errorf("dsms: server granted wire version %d, want %d", granted, wireV3)
	}
	return binary.ReadUvarint(br)
}
