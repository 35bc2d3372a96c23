package main

import (
	"syscall"
	"unsafe"

	"streamdb/internal/stream"
	"streamdb/internal/tuple"
)

// offHeap allocates n tuples of the given arity, with their values and
// element headers, in memory the garbage collector does not manage.
//
// A deployed engine's input arrives from a socket and is garbage soon
// after; its live heap is operator state. A replayed slab on the Go
// heap would instead be tens of megabytes of pointer-bearing memory
// that every collection cycle must mark, and the cycle length (and the
// mutator stalls that come with it on two cores) would be set by the
// harness, not by the engine. The values stored here carry no Go
// pointers (string values are refused by the caller), which is what
// makes holding them outside the heap legal.
func offHeap(n, arity int) ([]*tuple.Tuple, []stream.Element, []byte) {
	var t tuple.Tuple
	var v tuple.Value
	var e stream.Element
	tupSize, valSize, elemSize := int(unsafe.Sizeof(t)), int(unsafe.Sizeof(v)), int(unsafe.Sizeof(e))
	per := tupSize + arity*valSize + elemSize + int(unsafe.Sizeof(&t))
	mem, err := syscall.Mmap(-1, 0, n*per, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("bench: mmap: " + err.Error())
	}
	base := unsafe.Pointer(&mem[0])
	tups := unsafe.Slice((*tuple.Tuple)(base), n)
	vals := unsafe.Slice((*tuple.Value)(unsafe.Add(base, n*tupSize)), n*arity)
	elems := unsafe.Slice((*stream.Element)(unsafe.Add(base, n*(tupSize+arity*valSize))), n)
	ptrs := unsafe.Slice((**tuple.Tuple)(unsafe.Add(base, n*(tupSize+arity*valSize+elemSize))), n)
	for i := range tups {
		tups[i].Vals = vals[i*arity : (i+1)*arity : (i+1)*arity]
		ptrs[i] = &tups[i]
		elems[i] = stream.Tup(&tups[i])
	}
	return ptrs, elems, mem
}

// free unmaps the slab; its tuples must not be touched afterwards.
func (s *slab) free() {
	if err := syscall.Munmap(s.mem); err != nil {
		panic("bench: munmap: " + err.Error())
	}
	s.tuples, s.elems, s.mem = nil, nil, nil
}
