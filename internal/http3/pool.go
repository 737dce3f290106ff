package http3

import "sync"

// Pooled per-message scratch: one encode buffer per in-flight message,
// recycled instead of reallocated. The pool stores stable pointers so
// recycling never re-boxes a slice header.

type encodeScratch struct{ b []byte }

var encodeScratchPool = sync.Pool{
	New: func() any {
		return &encodeScratch{b: make([]byte, 0, 512)}
	},
}

func getEncodeScratch() *encodeScratch {
	s := encodeScratchPool.Get().(*encodeScratch)
	s.b = s.b[:0]
	return s
}

func putEncodeScratch(s *encodeScratch) {
	encodeScratchPool.Put(s)
}
