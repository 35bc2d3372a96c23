// Columnar edge flow: how stream.Batch column batches move through the
// concurrent engine.
//
// With RunOptions.Columnar set, sources emit their data tuples as
// column batches (transposing row sources, or taking stream.ColSource's
// decoded batches directly) while punctuations — and therefore
// checkpoint barriers — keep travelling the row path, a ColSource
// batch's Punct right behind its rows. Because a column
// batch carries data only, every ordering and alignment invariant of
// the row engine (punct-flushes-batch, barrier counting, the sink cut)
// applies unchanged; the only new rule is that a writer flushes its open
// row buffer before forwarding a column batch, so the two lanes of one
// edge never reorder against each other.
//
// Consumers that implement ops.BatchOperator get batches natively —
// behind the replicated and partial-aggregate splitters too, which pass
// batches on whole, and the key-partition router routes batch rows by
// index; everything else — row-only operators, sink edges without a
// ColSink — materializes rows through Batch.AppendRows at the boundary. Fan-out
// shares one batch across consumers by reference counting: each extra
// edge retains, the last send transfers the producer's reference, and a
// consumer holding a shared batch refines its selection through a view
// (see stream.Batch.Exclusive).

package exec

import (
	"sync/atomic"

	"streamdb/internal/stream"
)

// sendToCol delivers one column batch to a node's input channel,
// sampling the queue depth (in live rows) for MaxQueue.
func (r *concRun) sendToCol(to NodeID, port int, b *stream.Batch) {
	q := atomic.AddInt64(&r.pending[to], int64(b.N()))
	atomicMax(&r.maxQ[to], q)
	r.chans[to] <- batchMsg{port: port, col: b}
}

// addBatch forwards a column batch to every edge, consuming the
// caller's reference. The open row buffer is flushed first so row
// elements enqueued earlier keep their place; sink edges hand the batch
// to the ColSink or materialize rows for the row-shaped Sink, node
// edges share the batch by reference.
func (w *edgeWriter) addBatch(b *stream.Batch) {
	if len(w.edges) == 0 || b.N() == 0 {
		b.Release()
		return
	}
	w.flush()
	last := len(w.edges) - 1
	for i, ed := range w.edges {
		if ed.to < 0 {
			if w.r.colSink != nil {
				// Columnar-aware sink: hand the batch over by reference,
				// no row materialization at the output boundary.
				if i < last {
					b.Retain()
				}
				w.r.sinkCh <- sinkMsg{col: b}
				continue
			}
			w.r.sinkCh <- sinkMsg{elems: b.AppendRows(w.r.pool.Get())}
			if i == last {
				b.Release()
			}
			continue
		}
		if i < last {
			b.Retain()
		}
		w.r.sendToCol(ed.to, ed.port, b)
	}
}

// colWriter transposes a source's row elements into column batches on
// top of an edgeWriter. Data tuples accumulate in the open column
// batch; anything row-shaped (punctuations, barriers) flushes it first,
// preserving stream order.
type colWriter struct {
	w    *edgeWriter
	pool *stream.ColPool
	cur  *stream.Batch
}

// push routes one source element: data is transposed, punctuation takes
// the row path (flushing the open batch first).
func (cw *colWriter) push(e stream.Element) {
	if e.IsPunct() {
		cw.flushCol()
		cw.w.add(e)
		return
	}
	if cw.cur == nil {
		cw.cur = cw.pool.Get()
	}
	cw.cur.AppendRow(e.Tuple)
	if cw.cur.Rows() >= cw.pool.Size() {
		cw.flushCol()
	}
}

// flushCol hands the open column batch downstream.
func (cw *colWriter) flushCol() {
	if cw.cur == nil {
		return
	}
	b := cw.cur
	cw.cur = nil
	cw.w.addBatch(b) // addBatch releases empty batches itself
}
