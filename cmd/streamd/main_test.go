package main

import (
	"net"
	"strings"
	"testing"
	"time"
)

// TestLowNodeStopsAtFirstSendError: a low node whose uplink is gone
// returns the first send error, and its sink calls Send no more after
// it although the plan runs its input to the end.
func TestLowNodeStopsAtFirstSendError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens there any more
	cfg := lowConfig{addr: addr, retry: 2, timeout: time.Second, wireBatch: 1}
	raw, st, err := runLow(decomposition(), cfg, 20000, 1)
	if err == nil || !strings.HasPrefix(err.Error(), "send: ") {
		t.Fatalf("err = %v, want the send error", err)
	}
	if st.Sent != 1 {
		t.Errorf("Send called %d times, want once", st.Sent)
	}
	if raw != 20000 {
		t.Errorf("raw = %d, want the whole input read", raw)
	}
}
