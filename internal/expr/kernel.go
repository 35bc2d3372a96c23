// Column kernels: the vectorized counterpart of the scalar fast lane.
//
// A ColumnKernel evaluates a boolean expression over a whole column
// run at once, writing the physical row indexes that pass into a
// selection vector. Comparisons against literals compile into tight
// per-kind loops over the column storage (no per-row interface
// dispatch, no Value copies beyond one load); AND composes kernels by
// sequential refinement of the selection vector, OR by an ascending
// merge-union of two child selections. Any row whose runtime kind
// deviates from the schema — and any expression shape without a
// specialized loop — falls through to a row-at-a-time gather +
// EvalBool, so kernels are exactly equivalent to EvalBool on every
// row, NULLs included.

package expr

import "streamdb/internal/tuple"

// ColumnKernel appends to dst the physical row indexes (drawn from sel,
// or 0..len(ts)-1 when sel is nil) whose row satisfies the compiled
// predicate under EvalBool semantics, and returns the extended slice.
// dst may alias sel for in-place refinement: kernels only append a row
// after reading it, so the write index never passes the read index.
//
// Kernels carry private scratch state (row-gather buffers, OR merge
// buffers) and are therefore single-goroutine: every operator clone
// must compile its own kernel.
type ColumnKernel func(cols [][]tuple.Value, ts []int64, sel []int32, dst []int32) []int32

// kernelEnv is the shared scratch of one compiled kernel tree: a
// reusable row for gather-and-eval fallbacks.
type kernelEnv struct {
	row  tuple.Tuple
	vals []tuple.Value
}

func newKernelEnv(arity int) *kernelEnv {
	env := &kernelEnv{vals: make([]tuple.Value, arity)}
	env.row.Vals = env.vals
	return env
}

// rowFallback evaluates one physical row the slow way: gather into the
// scratch row, then EvalBool.
type rowFallback func(cols [][]tuple.Value, ts []int64, r int) bool

func (env *kernelEnv) fallbackFor(e Expr) rowFallback {
	return func(cols [][]tuple.Value, ts []int64, r int) bool {
		env.row.Ts = ts[r]
		n := len(cols)
		if n > len(env.vals) {
			n = len(env.vals)
		}
		for c := 0; c < n; c++ {
			env.vals[c] = cols[c][r]
		}
		return EvalBool(e, &env.row)
	}
}

// CompileKernel compiles a boolean expression into a column kernel over
// rows of the given arity. It never returns nil: shapes without a
// specialized loop compile into the generic row-at-a-time kernel, so a
// batch operator can always run columnar.
func CompileKernel(e Expr, arity int) ColumnKernel {
	return compileKernelExpr(e, newKernelEnv(arity))
}

func compileKernelExpr(e Expr, env *kernelEnv) ColumnKernel {
	if b, ok := e.(*Bin); ok {
		switch {
		case b.Op == OpAnd:
			return andKernel(compileKernelExpr(b.L, env), compileKernelExpr(b.R, env))
		case b.Op == OpOr:
			return orKernel(compileKernelExpr(b.L, env), compileKernelExpr(b.R, env))
		case b.Op.Comparison():
			if c, ok := b.L.(*Col); ok {
				if lit, ok := b.R.(*Lit); ok {
					if k := cmpKernel(e, c, b.Op, lit.Val, env); k != nil {
						return k
					}
				}
			}
			if lit, ok := b.L.(*Lit); ok {
				if c, ok := b.R.(*Col); ok {
					if k := cmpKernel(e, c, flipCmp(b.Op), lit.Val, env); k != nil {
						return k
					}
				}
			}
		}
	}
	return rowKernel(e, env)
}

// rowKernel is the generic fallback: gather each row and evaluate. The
// scalar compiled predicate is still used when the shape has one (e.g.
// a NOT the column lane does not specialize).
func rowKernel(e Expr, env *kernelEnv) ColumnKernel {
	pred := CompilePredicate(e)
	eval := env.fallbackFor(e)
	if pred != nil {
		p := pred
		eval = func(cols [][]tuple.Value, ts []int64, r int) bool {
			env.row.Ts = ts[r]
			n := len(cols)
			if n > len(env.vals) {
				n = len(env.vals)
			}
			for c := 0; c < n; c++ {
				env.vals[c] = cols[c][r]
			}
			return p(&env.row)
		}
	}
	return func(cols [][]tuple.Value, ts []int64, sel []int32, dst []int32) []int32 {
		if sel == nil {
			for r := 0; r < len(ts); r++ {
				if eval(cols, ts, r) {
					dst = append(dst, int32(r))
				}
			}
			return dst
		}
		for _, ri := range sel {
			if eval(cols, ts, int(ri)) {
				dst = append(dst, ri)
			}
		}
		return dst
	}
}

// andKernel refines sequentially: the left kernel writes survivors into
// dst, the right kernel refines them in place.
func andKernel(l, r ColumnKernel) ColumnKernel {
	return func(cols [][]tuple.Value, ts []int64, sel []int32, dst []int32) []int32 {
		mid := l(cols, ts, sel, dst)
		return r(cols, ts, mid, mid[:0])
	}
}

// orKernel evaluates both children over the same input selection into
// private scratch vectors, then merge-unions the two ascending index
// lists into dst. The union only starts writing dst after both children
// finished reading sel, so dst aliasing sel stays safe.
func orKernel(l, r ColumnKernel) ColumnKernel {
	var lb, rb []int32
	return func(cols [][]tuple.Value, ts []int64, sel []int32, dst []int32) []int32 {
		lres := l(cols, ts, sel, lb[:0])
		lb = lres
		rres := r(cols, ts, sel, rb[:0])
		rb = rres
		i, j := 0, 0
		for i < len(lres) && j < len(rres) {
			a, b := lres[i], rres[j]
			switch {
			case a < b:
				dst = append(dst, a)
				i++
			case b < a:
				dst = append(dst, b)
				j++
			default:
				dst = append(dst, a)
				i++
				j++
			}
		}
		dst = append(dst, lres[i:]...)
		dst = append(dst, rres[j:]...)
		return dst
	}
}

// cmpKernel builds the columnar loop for `col op lit`. The three
// highest-traffic kind pairs get dedicated loops with the comparison
// inlined; every other supported pair runs the shared sign closure;
// unsupported pairs return nil (caller falls back to rowKernel).
func cmpKernel(whole Expr, c *Col, op BinOp, lit tuple.Value, env *kernelEnv) ColumnKernel {
	idx, colKind, mask := c.Index, c.Typ, cmpMask(op)
	fb := env.fallbackFor(whole)
	switch {
	case colKind == tuple.KindInt && lit.Kind == tuple.KindInt:
		return intCmpKernel(idx, mask, int64(lit.Raw()), fb)
	case (colKind == tuple.KindUint || colKind == tuple.KindTime) &&
		(lit.Kind == tuple.KindUint || lit.Kind == tuple.KindTime):
		return uintCmpKernel(idx, colKind, mask, lit.Raw(), fb)
	case (colKind == tuple.KindUint || colKind == tuple.KindTime) && lit.Kind == tuple.KindInt:
		li := int64(lit.Raw())
		if li < 0 {
			// Column raw bits are never Int-negative: always greater.
			sign := func(tuple.Value) uint8 { return 2 }
			return signCmpKernel(idx, colKind, mask, sign, fb)
		}
		return uintCmpKernel(idx, colKind, mask, uint64(li), fb)
	case colKind == tuple.KindFloat:
		lf, ok := lit.AsFloat()
		if !ok {
			return nil
		}
		return floatCmpKernel(idx, mask, lf, fb)
	default:
		sign := compileSign(colKind, lit)
		if sign == nil {
			return nil
		}
		return signCmpKernel(idx, colKind, mask, sign, fb)
	}
}

// b2u compiles to a flag-set (SETcc), keeping the comparison loops
// free of data-dependent branches.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// The comparison kernels keep their hot loops pure: no function call in
// the body (a row-fallback call in a mixed loop forces register spills
// across the whole loop, tripling its cost even when never taken). On
// the dense path the pure loop runs speculatively with a branchless
// `bad |= kind != k` accumulator riding along — reading Raw()/Fl() of a
// mis-kinded Value is safe (one payload-word load), so a deviant row just
// discards the speculative output and re-runs the chunk through the
// mixed lane. On the sel path dst may alias sel (in-place refinement)
// and a failed speculation could not be rolled back, so the speculative
// loop writes into a kernel-private scratch instead and the survivors
// are copied into dst afterwards — sel is fully read by then, so the
// copy is alias-safe and the refinement stays a single pass over the
// column.

// growSel guarantees room for n more indexes in dst so the loops below
// can use the always-store/conditionally-advance idiom: write the row
// index unconditionally, bump the length only when the row passes. A
// mid-selectivity predicate mispredicts an append-if branch on nearly
// every row; the store is free.
func growSel(dst []int32, n int) []int32 {
	if cap(dst)-len(dst) < n {
		g := make([]int32, len(dst), len(dst)+n)
		copy(g, dst)
		return g
	}
	return dst
}

// intRunFn / floatRunFn pick the comparison loop for one kernel: the
// six comparison masks get loops whose pass bit is a direct comparison
// (or two, for float Eq/Ne); anything else keeps the generic
// mask-indexed sign loop.
type intRunFn func(col []tuple.Value, sel []int32, mask uint8, lit int64, dst []int32) ([]int32, bool)

type floatRunFn func(col []tuple.Value, sel []int32, mask uint8, lit float64, dst []int32) ([]int32, bool)

func intRunFor(mask uint8) intRunFn {
	switch mask {
	case 0b001: // Lt
		return intLtRun
	case 0b010: // Eq
		return intEqRun
	case 0b011: // Le
		return intLeRun
	case 0b100: // Gt
		return intGtRun
	case 0b101: // Ne
		return intNeRun
	case 0b110: // Ge
		return intGeRun
	}
	return intCmpRun
}

func floatRunFor(mask uint8) floatRunFn {
	switch mask {
	case 0b001: // Lt
		return floatLtRun
	case 0b010: // Eq
		return floatEqRun
	case 0b011: // Le
		return floatLeRun
	case 0b100: // Gt
		return floatGtRun
	case 0b101: // Ne
		return floatNeRun
	case 0b110: // Ge
		return floatGeRun
	}
	return floatCmpRun
}

func intCmpKernel(idx int, mask uint8, lit int64, fb rowFallback) ColumnKernel {
	var scratch []int32
	run := intRunFor(mask)
	return func(cols [][]tuple.Value, ts []int64, sel []int32, dst []int32) []int32 {
		col := cols[idx]
		var out []int32
		var ok bool
		if sel == nil {
			k0 := len(dst)
			out, ok = run(col, nil, mask, lit, dst)
			if ok {
				return out
			}
			dst = out[:k0]
		} else {
			out, ok = run(col, sel, mask, lit, scratch[:0])
			scratch = out[:0]
			if ok {
				return append(dst, out...)
			}
		}
		return cmpMixed(cols, ts, sel, dst, fb, func(r int32) uint8 {
			if col[r].Kind != tuple.KindInt {
				return 2
			}
			x := int64(col[r].Raw())
			return mask >> (1 + b2u(x > lit) - b2u(x < lit)) & 1
		})
	}
}

func intCmpRun(col []tuple.Value, sel []int32, mask uint8, lit int64, dst []int32) ([]int32, bool) {
	k := len(dst)
	var bad uint8
	if sel == nil {
		dst = growSel(dst, len(col))[:k+len(col)]
		for r := 0; r < len(col); r++ {
			bad |= b2u(col[r].Kind != tuple.KindInt)
			x := int64(col[r].Raw())
			dst[k] = int32(r)
			k += int(mask >> (1 + b2u(x > lit) - b2u(x < lit)) & 1)
		}
		return dst[:k], bad == 0
	}
	dst = growSel(dst, len(sel))[:k+len(sel)]
	for _, ri := range sel {
		bad |= b2u(col[ri].Kind != tuple.KindInt)
		x := int64(col[ri].Raw())
		dst[k] = ri
		k += int(mask >> (1 + b2u(x > lit) - b2u(x < lit)) & 1)
	}
	return dst[:k], bad == 0
}

func intLtRun(col []tuple.Value, sel []int32, _ uint8, lit int64, dst []int32) ([]int32, bool) {
	k := len(dst)
	var bad uint8
	if sel == nil {
		dst = growSel(dst, len(col))[:k+len(col)]
		for r := 0; r < len(col); r++ {
			bad |= b2u(col[r].Kind != tuple.KindInt)
			dst[k] = int32(r)
			k += int(b2u(int64(col[r].Raw()) < lit))
		}
		return dst[:k], bad == 0
	}
	dst = growSel(dst, len(sel))[:k+len(sel)]
	for _, ri := range sel {
		bad |= b2u(col[ri].Kind != tuple.KindInt)
		dst[k] = ri
		k += int(b2u(int64(col[ri].Raw()) < lit))
	}
	return dst[:k], bad == 0
}

func intLeRun(col []tuple.Value, sel []int32, _ uint8, lit int64, dst []int32) ([]int32, bool) {
	k := len(dst)
	var bad uint8
	if sel == nil {
		dst = growSel(dst, len(col))[:k+len(col)]
		for r := 0; r < len(col); r++ {
			bad |= b2u(col[r].Kind != tuple.KindInt)
			dst[k] = int32(r)
			k += int(b2u(int64(col[r].Raw()) <= lit))
		}
		return dst[:k], bad == 0
	}
	dst = growSel(dst, len(sel))[:k+len(sel)]
	for _, ri := range sel {
		bad |= b2u(col[ri].Kind != tuple.KindInt)
		dst[k] = ri
		k += int(b2u(int64(col[ri].Raw()) <= lit))
	}
	return dst[:k], bad == 0
}

func intGtRun(col []tuple.Value, sel []int32, _ uint8, lit int64, dst []int32) ([]int32, bool) {
	k := len(dst)
	var bad uint8
	if sel == nil {
		dst = growSel(dst, len(col))[:k+len(col)]
		for r := 0; r < len(col); r++ {
			bad |= b2u(col[r].Kind != tuple.KindInt)
			dst[k] = int32(r)
			k += int(b2u(int64(col[r].Raw()) > lit))
		}
		return dst[:k], bad == 0
	}
	dst = growSel(dst, len(sel))[:k+len(sel)]
	for _, ri := range sel {
		bad |= b2u(col[ri].Kind != tuple.KindInt)
		dst[k] = ri
		k += int(b2u(int64(col[ri].Raw()) > lit))
	}
	return dst[:k], bad == 0
}

func intGeRun(col []tuple.Value, sel []int32, _ uint8, lit int64, dst []int32) ([]int32, bool) {
	k := len(dst)
	var bad uint8
	if sel == nil {
		dst = growSel(dst, len(col))[:k+len(col)]
		for r := 0; r < len(col); r++ {
			bad |= b2u(col[r].Kind != tuple.KindInt)
			dst[k] = int32(r)
			k += int(b2u(int64(col[r].Raw()) >= lit))
		}
		return dst[:k], bad == 0
	}
	dst = growSel(dst, len(sel))[:k+len(sel)]
	for _, ri := range sel {
		bad |= b2u(col[ri].Kind != tuple.KindInt)
		dst[k] = ri
		k += int(b2u(int64(col[ri].Raw()) >= lit))
	}
	return dst[:k], bad == 0
}

func intEqRun(col []tuple.Value, sel []int32, _ uint8, lit int64, dst []int32) ([]int32, bool) {
	k := len(dst)
	var bad uint8
	if sel == nil {
		dst = growSel(dst, len(col))[:k+len(col)]
		for r := 0; r < len(col); r++ {
			bad |= b2u(col[r].Kind != tuple.KindInt)
			dst[k] = int32(r)
			k += int(b2u(int64(col[r].Raw()) == lit))
		}
		return dst[:k], bad == 0
	}
	dst = growSel(dst, len(sel))[:k+len(sel)]
	for _, ri := range sel {
		bad |= b2u(col[ri].Kind != tuple.KindInt)
		dst[k] = ri
		k += int(b2u(int64(col[ri].Raw()) == lit))
	}
	return dst[:k], bad == 0
}

func intNeRun(col []tuple.Value, sel []int32, _ uint8, lit int64, dst []int32) ([]int32, bool) {
	k := len(dst)
	var bad uint8
	if sel == nil {
		dst = growSel(dst, len(col))[:k+len(col)]
		for r := 0; r < len(col); r++ {
			bad |= b2u(col[r].Kind != tuple.KindInt)
			dst[k] = int32(r)
			k += int(b2u(int64(col[r].Raw()) != lit))
		}
		return dst[:k], bad == 0
	}
	dst = growSel(dst, len(sel))[:k+len(sel)]
	for _, ri := range sel {
		bad |= b2u(col[ri].Kind != tuple.KindInt)
		dst[k] = ri
		k += int(b2u(int64(col[ri].Raw()) != lit))
	}
	return dst[:k], bad == 0
}

func uintCmpKernel(idx int, colKind tuple.Kind, mask uint8, lit uint64, fb rowFallback) ColumnKernel {
	var scratch []int32
	return func(cols [][]tuple.Value, ts []int64, sel []int32, dst []int32) []int32 {
		col := cols[idx]
		var out []int32
		var ok bool
		if sel == nil {
			k0 := len(dst)
			out, ok = uintCmpRun(col, nil, colKind, mask, lit, dst)
			if ok {
				return out
			}
			dst = out[:k0]
		} else {
			out, ok = uintCmpRun(col, sel, colKind, mask, lit, scratch[:0])
			scratch = out[:0]
			if ok {
				return append(dst, out...)
			}
		}
		return cmpMixed(cols, ts, sel, dst, fb, func(r int32) uint8 {
			if col[r].Kind != colKind {
				return 2
			}
			x := col[r].Raw()
			return mask >> (1 + b2u(x > lit) - b2u(x < lit)) & 1
		})
	}
}

func uintCmpRun(col []tuple.Value, sel []int32, colKind tuple.Kind, mask uint8, lit uint64, dst []int32) ([]int32, bool) {
	k := len(dst)
	var bad uint8
	if sel == nil {
		dst = growSel(dst, len(col))[:k+len(col)]
		for r := 0; r < len(col); r++ {
			bad |= b2u(col[r].Kind != colKind)
			x := col[r].Raw()
			dst[k] = int32(r)
			k += int(mask >> (1 + b2u(x > lit) - b2u(x < lit)) & 1)
		}
		return dst[:k], bad == 0
	}
	dst = growSel(dst, len(sel))[:k+len(sel)]
	for _, ri := range sel {
		bad |= b2u(col[ri].Kind != colKind)
		x := col[ri].Raw()
		dst[k] = ri
		k += int(mask >> (1 + b2u(x > lit) - b2u(x < lit)) & 1)
	}
	return dst[:k], bad == 0
}

func floatCmpKernel(idx int, mask uint8, lit float64, fb rowFallback) ColumnKernel {
	var scratch []int32
	run := floatRunFor(mask)
	return func(cols [][]tuple.Value, ts []int64, sel []int32, dst []int32) []int32 {
		col := cols[idx]
		var out []int32
		var ok bool
		if sel == nil {
			k0 := len(dst)
			out, ok = run(col, nil, mask, lit, dst)
			if ok {
				return out
			}
			dst = out[:k0]
		} else {
			out, ok = run(col, sel, mask, lit, scratch[:0])
			scratch = out[:0]
			if ok {
				return append(dst, out...)
			}
		}
		return cmpMixed(cols, ts, sel, dst, fb, func(r int32) uint8 {
			if col[r].Kind != tuple.KindFloat {
				return 2
			}
			x := col[r].Fl()
			return mask >> (1 + b2u(x > lit) - b2u(x < lit)) & 1
		})
	}
}

// floatCmpRun: NaN compares neither below nor above, so the sign
// expression yields 1 ("equal"), matching floatSign and compareNumeric.
func floatCmpRun(col []tuple.Value, sel []int32, mask uint8, lit float64, dst []int32) ([]int32, bool) {
	k := len(dst)
	var bad uint8
	if sel == nil {
		dst = growSel(dst, len(col))[:k+len(col)]
		for r := 0; r < len(col); r++ {
			bad |= b2u(col[r].Kind != tuple.KindFloat)
			x := col[r].Fl()
			dst[k] = int32(r)
			k += int(mask >> (1 + b2u(x > lit) - b2u(x < lit)) & 1)
		}
		return dst[:k], bad == 0
	}
	dst = growSel(dst, len(sel))[:k+len(sel)]
	for _, ri := range sel {
		bad |= b2u(col[ri].Kind != tuple.KindFloat)
		x := col[ri].Fl()
		dst[k] = ri
		k += int(mask >> (1 + b2u(x > lit) - b2u(x < lit)) & 1)
	}
	return dst[:k], bad == 0
}

// The specialized float loops keep the NaN-counts-as-equal convention
// by construction: Lt/Gt use the direct comparison (false for NaN, and
// "equal" does not pass), Le/Ge use the negated opposite comparison
// (true for NaN, and "equal" passes), Eq/Ne combine both direct
// comparisons so a NaN cell — below nothing, above nothing — passes Eq
// and fails Ne, exactly like compareNumeric's sign 1. IEEE `NaN == x`
// is false, so a plain == here would silently diverge from EvalBool.

func floatLtRun(col []tuple.Value, sel []int32, _ uint8, lit float64, dst []int32) ([]int32, bool) {
	k := len(dst)
	var bad uint8
	if sel == nil {
		dst = growSel(dst, len(col))[:k+len(col)]
		for r := 0; r < len(col); r++ {
			bad |= b2u(col[r].Kind != tuple.KindFloat)
			dst[k] = int32(r)
			k += int(b2u(col[r].Fl() < lit))
		}
		return dst[:k], bad == 0
	}
	dst = growSel(dst, len(sel))[:k+len(sel)]
	for _, ri := range sel {
		bad |= b2u(col[ri].Kind != tuple.KindFloat)
		dst[k] = ri
		k += int(b2u(col[ri].Fl() < lit))
	}
	return dst[:k], bad == 0
}

func floatLeRun(col []tuple.Value, sel []int32, _ uint8, lit float64, dst []int32) ([]int32, bool) {
	k := len(dst)
	var bad uint8
	if sel == nil {
		dst = growSel(dst, len(col))[:k+len(col)]
		for r := 0; r < len(col); r++ {
			bad |= b2u(col[r].Kind != tuple.KindFloat)
			dst[k] = int32(r)
			k += 1 - int(b2u(col[r].Fl() > lit))
		}
		return dst[:k], bad == 0
	}
	dst = growSel(dst, len(sel))[:k+len(sel)]
	for _, ri := range sel {
		bad |= b2u(col[ri].Kind != tuple.KindFloat)
		dst[k] = ri
		k += 1 - int(b2u(col[ri].Fl() > lit))
	}
	return dst[:k], bad == 0
}

func floatGtRun(col []tuple.Value, sel []int32, _ uint8, lit float64, dst []int32) ([]int32, bool) {
	k := len(dst)
	var bad uint8
	if sel == nil {
		dst = growSel(dst, len(col))[:k+len(col)]
		for r := 0; r < len(col); r++ {
			bad |= b2u(col[r].Kind != tuple.KindFloat)
			dst[k] = int32(r)
			k += int(b2u(col[r].Fl() > lit))
		}
		return dst[:k], bad == 0
	}
	dst = growSel(dst, len(sel))[:k+len(sel)]
	for _, ri := range sel {
		bad |= b2u(col[ri].Kind != tuple.KindFloat)
		dst[k] = ri
		k += int(b2u(col[ri].Fl() > lit))
	}
	return dst[:k], bad == 0
}

func floatGeRun(col []tuple.Value, sel []int32, _ uint8, lit float64, dst []int32) ([]int32, bool) {
	k := len(dst)
	var bad uint8
	if sel == nil {
		dst = growSel(dst, len(col))[:k+len(col)]
		for r := 0; r < len(col); r++ {
			bad |= b2u(col[r].Kind != tuple.KindFloat)
			dst[k] = int32(r)
			k += 1 - int(b2u(col[r].Fl() < lit))
		}
		return dst[:k], bad == 0
	}
	dst = growSel(dst, len(sel))[:k+len(sel)]
	for _, ri := range sel {
		bad |= b2u(col[ri].Kind != tuple.KindFloat)
		dst[k] = ri
		k += 1 - int(b2u(col[ri].Fl() < lit))
	}
	return dst[:k], bad == 0
}

func floatEqRun(col []tuple.Value, sel []int32, _ uint8, lit float64, dst []int32) ([]int32, bool) {
	k := len(dst)
	var bad uint8
	if sel == nil {
		dst = growSel(dst, len(col))[:k+len(col)]
		for r := 0; r < len(col); r++ {
			bad |= b2u(col[r].Kind != tuple.KindFloat)
			x := col[r].Fl()
			dst[k] = int32(r)
			k += 1 - int(b2u(x < lit)|b2u(x > lit))
		}
		return dst[:k], bad == 0
	}
	dst = growSel(dst, len(sel))[:k+len(sel)]
	for _, ri := range sel {
		bad |= b2u(col[ri].Kind != tuple.KindFloat)
		x := col[ri].Fl()
		dst[k] = ri
		k += 1 - int(b2u(x < lit)|b2u(x > lit))
	}
	return dst[:k], bad == 0
}

func floatNeRun(col []tuple.Value, sel []int32, _ uint8, lit float64, dst []int32) ([]int32, bool) {
	k := len(dst)
	var bad uint8
	if sel == nil {
		dst = growSel(dst, len(col))[:k+len(col)]
		for r := 0; r < len(col); r++ {
			bad |= b2u(col[r].Kind != tuple.KindFloat)
			x := col[r].Fl()
			dst[k] = int32(r)
			k += int(b2u(x < lit) | b2u(x > lit))
		}
		return dst[:k], bad == 0
	}
	dst = growSel(dst, len(sel))[:k+len(sel)]
	for _, ri := range sel {
		bad |= b2u(col[ri].Kind != tuple.KindFloat)
		x := col[ri].Fl()
		dst[k] = ri
		k += int(b2u(x < lit) | b2u(x > lit))
	}
	return dst[:k], bad == 0
}

// cmpMixed is the slow lane for columns with at least one row whose
// runtime kind deviates from the schema: eval returns 0/1 for a
// conforming row and 2 to route the row through the fallback.
func cmpMixed(cols [][]tuple.Value, ts []int64, sel []int32, dst []int32, fb rowFallback, eval func(r int32) uint8) []int32 {
	push := func(r int32) {
		switch eval(r) {
		case 1:
			dst = append(dst, r)
		case 2:
			if fb(cols, ts, int(r)) {
				dst = append(dst, r)
			}
		}
	}
	if sel == nil {
		for r := 0; r < len(cols[0]); r++ {
			push(int32(r))
		}
		return dst
	}
	for _, ri := range sel {
		push(ri)
	}
	return dst
}

func signCmpKernel(idx int, colKind tuple.Kind, mask uint8, sign func(tuple.Value) uint8, fb rowFallback) ColumnKernel {
	return func(cols [][]tuple.Value, ts []int64, sel []int32, dst []int32) []int32 {
		col := cols[idx]
		if sel == nil {
			for r := 0; r < len(col); r++ {
				v := col[r]
				if v.Kind == colKind {
					if mask>>sign(v)&1 != 0 {
						dst = append(dst, int32(r))
					}
				} else if fb(cols, ts, r) {
					dst = append(dst, int32(r))
				}
			}
			return dst
		}
		for _, ri := range sel {
			v := col[ri]
			if v.Kind == colKind {
				if mask>>sign(v)&1 != 0 {
					dst = append(dst, ri)
				}
			} else if fb(cols, ts, int(ri)) {
				dst = append(dst, ri)
			}
		}
		return dst
	}
}
