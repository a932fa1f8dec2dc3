package transport

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// netCase is one of the four substrates the datagram-path tests cover:
// chan and UDP, each bare and behind the shaper.
type netCase struct {
	name  string
	build Factory
	shape bool
}

var netCases = []netCase{
	{"chan", Chan(), false},
	{"udp", UDP(), false},
	{"shaped-chan", Chan(), true},
	{"shaped-udp", UDP(), true},
}

// open builds the case's net for n peers, behind a shaper with profile p
// when the case is shaped (the ShapedNet is nil otherwise).
func (nc netCase) open(t *testing.T, n int, p Profile) (Net, *ShapedNet) {
	t.Helper()
	nw, err := nc.build(n)
	if err != nil {
		t.Fatal(err)
	}
	if !nc.shape {
		return nw, nil
	}
	s := Shape(nw, p)
	return s, s
}

// TestDatagramPathZeroAlloc: once the pool is warm, a Send, the
// handler's delivery and its Release allocate nothing on any substrate —
// the receiver's copy comes from the pool and goes back to it, and so
// does the shaper's held copy.
func TestDatagramPathZeroAlloc(t *testing.T) {
	for _, nc := range netCases {
		t.Run(nc.name, func(t *testing.T) {
			nw, _ := nc.open(t, 2, Profile{Seed: 1, Delay: 20 * time.Microsecond})
			defer nw.Close()
			arrived := make(chan struct{}, 1)
			if _, err := nw.Attach(1, func(buf []byte) {
				nw.Release(buf)
				arrived <- struct{}{}
			}); err != nil {
				t.Fatal(err)
			}
			ep, err := nw.Attach(0, func([]byte) {})
			if err != nil {
				t.Fatal(err)
			}
			buf := mark(0, 0, 1024)
			roundTrip := func() {
				if err := ep.Send(1, buf); err != nil {
					t.Fatal(err)
				}
				<-arrived
			}
			for i := 0; i < 64; i++ {
				roundTrip()
			}
			avg := testing.AllocsPerRun(200, roundTrip)
			t.Logf("allocs: Send → handler → Release on %s costs %.0f, pin 0", nc.name, avg)
			if avg != 0 {
				t.Fatalf("a warm datagram round trip allocates %.2f times, want 0", avg)
			}
		})
	}
}

// drainPool empties every class.
func drainPool() {
	for c := range pool {
		for len(pool[c]) > 0 {
			<-pool[c]
		}
	}
}

// retained returns the buffers class c holds, leaving them in place.
func retained(c int) [][]byte {
	var held [][]byte
	for len(pool[c]) > 0 {
		held = append(held, <-pool[c])
	}
	for _, b := range held {
		pool[c] <- b
	}
	return held
}

// TestPoolBounded: the pool never retains more than poolClassBytes of
// buffers in a class (one buffer, in a class larger than that), only
// buffers whose capacity is exactly a class size, and clone(b) always
// returns b's bytes, with at most 25 % waste.
func TestPoolBounded(t *testing.T) {
	// Classes are numbered densely in size order, and a class's size
	// maps back to it.
	sizes := make([]int, poolClasses)
	prevC, prevSize := -1, 0
	for n := 1; n <= 1<<poolMaxShift; n++ {
		c, size := class(n)
		same := c == prevC && size == prevSize
		next := c == prevC+1 && size > prevSize
		if size < n || !(same || next) {
			t.Fatalf("class(%d) = %d, %d B after class %d, %d B", n, c, size, prevC, prevSize)
		}
		if got, _ := class(size); got != c || classSize(c) != size {
			t.Fatalf("class %d (%d B) maps back to class %d, classSize says %d B", c, size, got, classSize(c))
		}
		prevC, prevSize, sizes[c] = c, size, size
	}
	if prevC != poolClasses-1 || prevSize != 1<<poolMaxShift {
		t.Fatalf("largest class %d is %d B, want %d, %d B", prevC, prevSize, poolClasses-1, 1<<poolMaxShift)
	}
	if c, _ := class(1<<poolMaxShift + 1); c != -1 {
		t.Fatalf("a buffer beyond the largest class maps to class %d", c)
	}
	for _, n := range []int{0, 1, 511, 512, 513, 640, 641, 1000, 1024, 1025, 40000, MaxDatagram, 1 << poolMaxShift, 1<<poolMaxShift + 1, 100000} {
		src := bytes.Repeat([]byte{7}, n)
		b := clone(src)
		if !bytes.Equal(b, src) {
			t.Fatalf("clone of %d bytes returned %d bytes, or different ones", n, len(b))
		}
		if n > 1<<poolMinShift && cap(b) > n*5/4 {
			t.Fatalf("clone of %d bytes returned a %d-byte buffer: more than 25 %% waste", n, cap(b))
		}
		put(b)
	}

	drainPool()
	for _, b := range [][]byte{nil, make([]byte, 0), make([]byte, 700), make([]byte, 10, 1000), make([]byte, 1<<poolMaxShift+1), make([]byte, 1<<poolMaxShift*2)} {
		put(b)
	}
	for c := range pool {
		if n := len(retained(c)); n != 0 {
			t.Fatalf("%d foreign-capacity buffers were retained in class %d (%d B)", n, c, sizes[c])
		}
	}

	// 10 000 releases of mixed sizes, in batches so that many buffers of
	// one class come back without a get in between.
	rng := rand.New(rand.NewSource(1))
	batch := make([][]byte, 500)
	for round := 0; round < 20; round++ {
		for i := range batch {
			batch[i] = clone(make([]byte, rng.Intn(1<<(6+rng.Intn(11))))) // log-spread up to 64 KiB
		}
		for _, b := range batch {
			put(b)
		}
		for c := range pool {
			bytes := 0
			for _, b := range retained(c) {
				if cap(b) != sizes[c] {
					t.Fatalf("class %d (%d B) retains a %d-byte buffer", c, sizes[c], cap(b))
				}
				bytes += cap(b)
			}
			if bytes > max(poolClassBytes, sizes[c]) {
				t.Fatalf("class %d (%d B) retains %d B, bound %d B", c, sizes[c], bytes, poolClassBytes)
			}
		}
	}
	// The smallest class fills to its byte cap and no further.
	want := poolClassBytes >> poolMinShift
	for i := 0; i < 2*want; i++ {
		put(make([]byte, 0, 1<<poolMinShift))
	}
	if n := len(retained(0)); n != want {
		t.Fatalf("the smallest class retains %d buffers after %d releases, want %d", n, 2*want, want)
	}
	drainPool()
}
