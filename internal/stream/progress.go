package stream

import "math"

// Progress is the low watermark of a merge of streams in timestamp
// order that carry no punctuations of their own, such as the partial
// records of a distributed aggregation's low-level nodes. A stream that
// has delivered a tuple at ts has nothing more before ts, so once every
// expected stream has delivered or completed, everything before the
// smallest of their highest timestamps is complete. A completed stream
// leaves the minimum; one that stops without completing (its sender
// died) holds progress back until the consumer's final flush.
type Progress struct {
	streams int
	last    map[string]int64 // stream -> highest timestamp; MaxInt64 once completed
	mark    int64            // the last progress handed out
}

// NewProgress tracks the given number of expected streams.
func NewProgress(streams int) *Progress {
	return &Progress{streams: streams, last: make(map[string]int64, streams)}
}

// Observe notes that stream id delivered a tuple at ts.
func (p *Progress) Observe(id string, ts int64) {
	if prev, ok := p.last[id]; !ok || ts > prev {
		p.last[id] = ts
	}
}

// End notes that stream id has completed.
func (p *Progress) End(id string) { p.last[id] = math.MaxInt64 }

// Punct returns the punctuation that may follow everything observed so
// far — the minimum over the expected streams of each one's highest
// timestamp, minus 1 — or nil when that has not moved, or when every
// stream has completed and the consumer's final flush closes the rest.
func (p *Progress) Punct() *Punctuation {
	if len(p.last) < p.streams {
		return nil
	}
	low := int64(math.MaxInt64)
	for _, ts := range p.last {
		low = min(low, ts)
	}
	if low == math.MaxInt64 || low-1 <= p.mark {
		return nil
	}
	p.mark = low - 1
	return &Punctuation{Ts: p.mark}
}
