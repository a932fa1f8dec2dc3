package transport

import "math/bits"

// The datagram pool: one process-wide free list in size classes of
// 512 B, then four per octave up to 64 KiB (≤ 25 % waste; two-fold
// classes missed more and held more RSS, see PERFORMANCE.md "Lent
// datagram buffers"), each keeping at most poolClassBytes of buffers —
// many small ones, few large ones, since small datagrams (lazy pushes,
// pulls, membership) are most of what is in flight. Every copy a Net
// delivers or holds comes from it and Net.Release hands buffers back;
// sharing one pool lets a held copy the shaper releases carry the next
// datagram a reader copies.
const (
	poolMinShift   = 9 // 512 B
	poolMaxShift   = 16
	poolClassBytes = 256 << 10
	poolClasses    = 1 + 4*(poolMaxShift-poolMinShift)
	releasedByte   = 0xDE // what put fills a released buffer with under -race
)

var pool = func() (p [poolClasses]chan []byte) {
	for c := range p {
		p[c] = make(chan []byte, max(1, poolClassBytes/classSize(c)))
	}
	return p
}()

// classSize is the capacity of class c's buffers.
func classSize(c int) int {
	if c == 0 {
		return 1 << poolMinShift
	}
	shift := poolMinShift + (c-1)/4
	return 1<<shift + ((c-1)%4+1)*(1<<shift>>2)
}

// class returns the smallest class that holds n bytes and the capacity
// of its buffers, or c = -1 when n exceeds the largest class.
func class(n int) (c, size int) {
	if n <= 1<<poolMinShift {
		return 0, 1 << poolMinShift
	}
	shift := bits.Len(uint(n-1)) - 1 // 1<<shift < n <= 2<<shift
	if shift >= poolMaxShift {
		return -1, n
	}
	step := 1 << shift >> 2
	i := (n - 1 - 1<<shift) / step
	return 1 + 4*(shift-poolMinShift) + i, 1<<shift + (i+1)*step
}

// clone returns a copy of b, in a pooled buffer when len(b) fits a class.
func clone(b []byte) []byte {
	c, size := class(len(b))
	if c < 0 {
		return append([]byte(nil), b...)
	}
	select {
	case p := <-pool[c]:
		return append(p[:0], b...)
	default:
		return append(make([]byte, 0, size), b...)
	}
}

// put hands b back (a capacity that is not a class size is left to the
// GC); the caller must not touch b afterwards.
func put(b []byte) {
	if poisonReleased {
		b = b[:cap(b)]
		for i := range b {
			b[i] = releasedByte
		}
	}
	if c, size := class(cap(b)); c >= 0 && size == cap(b) {
		select {
		case pool[c] <- b:
		default: // a full class leaves a spare buffer, not an envelope, to the GC
		}
	}
}
