package tuple

import "testing"

// TestKey1CrossKindAgreement: the fast single-column lane must hash
// numerically equal Int/Uint/Time values identically, because a join
// may carry the key as KindInt on one side and KindTime on the other
// and the two ports share one hash space.
func TestKey1CrossKindAgreement(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 42, 1 << 40, -1 << 40} {
		a := New(0, Int(v)).Key1(0)
		b := New(0, Time(v)).Key1(0)
		if a != b {
			t.Errorf("Key1(Int(%d)) = %x, Key1(Time(%d)) = %x", v, a, v, b)
		}
		if v >= 0 {
			c := New(0, Uint(uint64(v))).Key1(0)
			if a != c {
				t.Errorf("Key1(Int(%d)) = %x, Key1(Uint(%d)) = %x", v, a, v, c)
			}
		}
	}
}

// TestKey1Avalanche: sequential key values must not land in sequential
// hash values — the fast lane feeds modulo-style bucket selection, so a
// raw identity hash would degenerate into per-bucket key clustering.
func TestKey1Avalanche(t *testing.T) {
	const n = 1 << 12
	seen := make(map[uint64]int64, n)
	lowBits := make(map[uint64]int, 8)
	for i := int64(0); i < n; i++ {
		h := New(0, Int(i)).Key1(0)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Key1 collision between Int(%d) and Int(%d)", prev, i)
		}
		seen[h] = i
		lowBits[h%8]++
	}
	for b := uint64(0); b < 8; b++ {
		// A perfectly even split is n/8 = 512; allow a generous band.
		if c := lowBits[b]; c < n/16 || c > n/4 {
			t.Errorf("bucket %d holds %d of %d sequential keys: low bits not mixed", b, c, n)
		}
	}
}

// TestFastKeyKindGates pins the kinds admitted to the fast lane. IP is
// in: IP equality is payload equality. Float must stay out (Float(2)
// equals Int(2) but stores an IEEE payload); String hashes by content,
// and Bool's equality is not the numeric payload's.
func TestFastKeyKindGates(t *testing.T) {
	for _, k := range []Kind{KindInt, KindUint, KindTime, KindIP} {
		if !FastKeyKind(k) {
			t.Errorf("FastKeyKind(%v) = false, want true", k)
		}
	}
	for _, k := range []Kind{KindFloat, KindString, KindBool, KindNull} {
		if FastKeyKind(k) {
			t.Errorf("FastKeyKind(%v) = true, want false", k)
		}
	}
}

// TestKey1IPMatchesEqual: two IP values hash alike under Key1 exactly
// when they are Equal, so an IP key may take the fast lane.
func TestKey1IPMatchesEqual(t *testing.T) {
	ips := []uint32{0, 1, 0x0a000001, 0xc0a80001, 0xffffffff}
	for _, a := range ips {
		for _, b := range ips {
			ta, tb := New(0, IP(a)), New(0, IP(b))
			same := ta.Key1(0) == tb.Key1(0)
			if eq := IP(a).Equal(IP(b)); same != eq {
				t.Errorf("IP %x vs %x: Equal %v, Key1 equal %v", a, b, eq, same)
			}
		}
	}
}
