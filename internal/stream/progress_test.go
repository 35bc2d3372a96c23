package stream

import "testing"

// TestProgressRule: nothing until every expected stream has delivered or
// completed, then the minimum of the streams' highest timestamps minus
// 1, only when it moves; a completed stream leaves the minimum, and once
// every stream has completed there is nothing left to promise.
func TestProgressRule(t *testing.T) {
	p := NewProgress(2)
	step := func(want int64) {
		t.Helper()
		got := int64(-1)
		if pu := p.Punct(); pu != nil {
			got = pu.Ts
		}
		if got != want {
			t.Fatalf("progress %d, want %d", got, want)
		}
	}
	p.Observe("a", 50)
	step(-1)
	p.Observe("b", 20)
	step(19)
	p.Observe("b", 10) // not this stream's highest
	step(-1)
	p.Observe("b", 30)
	step(29)
	p.End("b")
	step(49)
	p.Observe("a", 80)
	step(79)
	p.End("a")
	step(-1)
}
