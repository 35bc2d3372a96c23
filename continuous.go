package streamdb

import (
	"errors"
	"fmt"
	"sync"

	"streamdb/internal/exec"
	"streamdb/internal/query"
	"streamdb/internal/stream"
)

// ContinuousQuery is a registered persistent query (slide 19:
// "persistent/continuous queries ... content-based filtering" in the
// Tapestry/NiagaraCQ lineage): elements are pushed in with Feed and
// results stream to the sink as the operators produce them.
//
// A query over one stream runs on the batched engine for as long as it
// is registered: Feed and Advance enqueue into a bounded push source
// and return, and query.Plan.Execute drains it on a goroutine of its
// own. The engine never waits for a batch to fill, so a lone tuple's
// results reach the sink without another Feed, and tuples that arrive
// while the engine is busy are processed together. The caller picks the
// cadence:
//
//	Feed     enqueue one tuple (blocks only while the queue is full)
//	Advance  enqueue a progress punctuation
//	Flush    barrier: everything fed so far has reached the sink
//	Close    end of input: flush all state, wait for the run to finish
//
// The sink is called from an engine goroutine; calls are serial, and
// every call caused by what was fed before a Flush or Close happens
// before that Flush or Close returns. A tuple handed to Feed belongs to
// the query and must not be modified afterwards. Close must be called
// to release the query's goroutines.
//
// A query over two streams is specified by the cross-stream arrival
// order, so it still runs each arrival to completion inside Feed;
// Flush has nothing to wait for there.
type ContinuousQuery struct {
	plan *query.Plan

	// One FROM stream: the push door.
	stream string
	src    *stream.PushSource
	done   chan struct{} // closed when Execute has returned
	runErr error         // Execute's result; read after done is closed

	// Two FROM streams: the per-arrival loop, one caller at a time.
	mu     sync.Mutex
	graph  *exec.Graph
	queues map[string]*stream.Queue
	closed bool
}

var errContinuousClosed = errors.New("streamdb: continuous query is closed")

// RegisterContinuous compiles sql and installs it as a standing query
// whose results flow to sink incrementally. See ContinuousQuery for
// when sink is called and on which goroutine.
func (e *Engine) RegisterContinuous(sql string, sink func(*Tuple)) (*ContinuousQuery, error) {
	if sink == nil {
		return nil, fmt.Errorf("streamdb: continuous query needs a sink")
	}
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	plan, err := query.Compile(q, e.cat)
	if err != nil {
		return nil, err
	}
	cq := &ContinuousQuery{plan: plan}
	if len(q.From) == 1 {
		name := q.From[0].Stream
		sch, ok := e.cat.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("streamdb: unknown stream %q", name)
		}
		cq.stream = name
		cq.src = stream.NewPushSource(sch, 0)
		cq.done = make(chan struct{})
		go func() {
			defer close(cq.done)
			cq.runErr = plan.Execute(map[string]stream.Source{name: cq.src}, sink, -1)
			cq.src.Stop(cq.runErr)
		}()
		return cq, nil
	}
	cq.queues = make(map[string]*stream.Queue)
	cq.graph = exec.NewGraph(func(el Element) {
		if !el.IsPunct() {
			sink(el.Tuple)
		}
	})
	sources := make(map[string]stream.Source)
	for _, fi := range q.From {
		sch, ok := e.cat.Lookup(fi.Stream)
		if !ok {
			return nil, fmt.Errorf("streamdb: unknown stream %q", fi.Stream)
		}
		qu := stream.NewQueue(sch)
		cq.queues[fi.Stream] = qu
		sources[fi.Stream] = qu
	}
	if err := plan.Build(cq.graph, sources); err != nil {
		return nil, err
	}
	return cq, nil
}

// Plan exposes the compiled plan (bounded-memory verdict, Explain).
// After Close, Plan().Stats() holds the run's per-operator counters.
func (cq *ContinuousQuery) Plan() *Plan { return cq.plan }

// Feed pushes one tuple into the named stream. It returns the query's
// first failure once an operator has failed. Feeding multiple streams
// of a join: call Feed per arrival in timestamp order for deterministic
// results.
func (cq *ContinuousQuery) Feed(streamName string, t *Tuple) error {
	return cq.push(streamName, stream.Tup(t))
}

// Advance injects a progress punctuation on the named stream: "no more
// tuples with ordering attribute <= ts will arrive" (slide 28). Windowed
// aggregates close their due windows when it reaches them.
func (cq *ContinuousQuery) Advance(streamName string, ts int64) error {
	sch, err := cq.schemaOf(streamName)
	if err != nil {
		return err
	}
	ord := sch.OrderingIndex()
	if ord < 0 {
		return fmt.Errorf("streamdb: stream %q has no ordering attribute", streamName)
	}
	return cq.push(streamName, stream.Punct(stream.ProgressPunct(ts, ord, Time(ts))))
}

func (cq *ContinuousQuery) schemaOf(streamName string) (*Schema, error) {
	if cq.src != nil && streamName == cq.stream {
		return cq.src.Schema(), nil
	}
	if qu, ok := cq.queues[streamName]; ok {
		return qu.Schema(), nil
	}
	return nil, fmt.Errorf("streamdb: query does not read stream %q", streamName)
}

// push hands one element of the named stream to the query.
func (cq *ContinuousQuery) push(streamName string, e Element) error {
	if _, err := cq.schemaOf(streamName); err != nil {
		return err
	}
	if cq.src != nil {
		return closedErr(cq.src.Push(e))
	}
	cq.mu.Lock()
	defer cq.mu.Unlock()
	if cq.closed {
		return errContinuousClosed
	}
	cq.queues[streamName].Feed(e)
	cq.graph.Pump(-1)
	return cq.graph.Err()
}

// closedErr names the end of the push source the way this API does.
func closedErr(err error) error {
	if err == stream.ErrEnded {
		return errContinuousClosed
	}
	return err
}

// Flush returns once every result caused by what has been fed so far
// has been delivered to the sink, or with the query's first failure.
// Results reach the sink without it; Flush is for a caller that needs
// to know they have.
func (cq *ContinuousQuery) Flush() error {
	if cq.src != nil {
		return closedErr(cq.src.Flush())
	}
	cq.mu.Lock()
	defer cq.mu.Unlock()
	if cq.closed {
		return errContinuousClosed
	}
	return cq.graph.Err() // every Feed already ran to completion
}

// Close ends the query: remaining state (open windows, unbounded
// aggregates) flushes to the sink, and the query's first failure, if
// any, is returned. Further Feeds error; a second Close returns the
// same result.
func (cq *ContinuousQuery) Close() error {
	if cq.src != nil {
		cq.src.End()
		<-cq.done
		return cq.runErr
	}
	cq.mu.Lock()
	defer cq.mu.Unlock()
	if !cq.closed {
		cq.closed = true
		cq.graph.Pump(-1)
		cq.graph.Finish()
	}
	return cq.graph.Err()
}
