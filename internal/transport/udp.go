package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MaxDatagram is the largest encoded envelope a UDP endpoint will send:
// the IPv4 maximum UDP payload (65535 - 20 IP - 8 UDP header bytes).
// Send refuses anything larger instead of letting the kernel truncate
// or reject it at an unaccountable layer.
const MaxDatagram = 65507

// udpReadBuffer is the per-socket kernel receive buffer we request
// (best effort): large enough that a storm burst queues in the kernel
// instead of being dropped invisibly before user space can count it.
const udpReadBuffer = 4 << 20

// UDP returns the loopback-socket transport factory: one real datagram
// socket per peer, encode-on-send / decode-on-receive.
func UDP() Factory {
	return func(n int) (Net, error) { return NewUDPNet(n) }
}

// UDPNet binds one loopback UDP socket per peer. Sends go straight to
// the kernel with WriteToUDP; a reader goroutine per attached peer
// copies each datagram into a pooled buffer and lends it to the peer's
// handler.
//
// The socket table lives behind an atomic pointer and grows
// copy-on-write: a joining peer's Attach binds one more socket without
// blocking (or racing) the cluster's in-flight Sends.
type udpTable struct {
	conns    []*net.UDPConn
	addrs    []*net.UDPAddr
	attached []bool
	handlers []Handler // kept so Rebind can start the new socket's reader
}

type UDPNet struct {
	table atomic.Pointer[udpTable]
	mu    sync.Mutex // serialises Attach/Rebind (table growth) against Close

	// retired holds the pre-rebind socket of every moved peer: Rebind is
	// make-before-break, so the old socket keeps draining datagrams that
	// were addressed to it until Close — a rebind loses nothing.
	// Guarded by mu.
	retired []*net.UDPConn

	readers sync.WaitGroup
	// sentD/recvD count datagrams accepted by and read back from the
	// kernel; Close uses them to quiesce before tearing sockets down.
	sentD, recvD atomic.Uint64

	closed    bool // guarded by mu
	closeOnce sync.Once
}

// bindLoopback binds one loopback socket on an ephemeral port.
func bindLoopback() (*net.UDPConn, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	// Best effort: a small default rcvbuf is the one way loopback
	// datagrams get lost invisibly under load.
	_ = conn.SetReadBuffer(udpReadBuffer)
	return conn, nil
}

// NewUDPNet binds n loopback sockets on ephemeral ports. On any bind
// failure the already-bound sockets are released.
func NewUDPNet(n int) (*UDPNet, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: need at least 1 peer, got %d", n)
	}
	u := &UDPNet{}
	tbl := &udpTable{
		conns:    make([]*net.UDPConn, n),
		addrs:    make([]*net.UDPAddr, n),
		attached: make([]bool, n),
		handlers: make([]Handler, n),
	}
	u.table.Store(tbl)
	for i := 0; i < n; i++ {
		conn, err := bindLoopback()
		if err != nil {
			u.Close()
			return nil, fmt.Errorf("transport: bind socket for peer %d: %w", i, err)
		}
		tbl.conns[i] = conn
		tbl.addrs[i] = conn.LocalAddr().(*net.UDPAddr)
	}
	return u, nil
}

// Attach implements Net: it starts peer id's reader goroutine. id ==
// current population grows the net by one freshly bound socket.
func (u *UDPNet) Attach(id int, h Handler) (Transport, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return nil, ErrClosed
	}
	tbl := u.table.Load()
	if id < 0 || id > len(tbl.conns) {
		return nil, fmt.Errorf("transport: peer id %d out of range [0,%d]", id, len(tbl.conns))
	}
	if id < len(tbl.conns) && tbl.attached[id] {
		return nil, fmt.Errorf("transport: peer %d attached twice", id)
	}
	if h == nil {
		return nil, fmt.Errorf("transport: peer %d attached a nil handler", id)
	}
	// Copy-on-write even for pre-sized slots: a concurrent Send must
	// never observe a half-written table.
	grown := tbl.grow(max(len(tbl.conns), id+1))
	if grown.conns[id] == nil {
		conn, err := bindLoopback()
		if err != nil {
			return nil, fmt.Errorf("transport: bind socket for joining peer %d: %w", id, err)
		}
		grown.conns[id] = conn
		grown.addrs[id] = conn.LocalAddr().(*net.UDPAddr)
	}
	grown.attached[id] = true
	grown.handlers[id] = h
	u.table.Store(grown)
	u.readers.Add(1)
	go u.readLoop(grown.conns[id], h)
	return &udpEndpoint{net: u, id: id}, nil
}

// grow returns a copy-on-write copy of the table, sized for n peers. A
// concurrent Send must never observe a half-written table, so every
// mutation goes through a fresh copy.
func (t *udpTable) grow(n int) *udpTable {
	grown := &udpTable{
		conns:    make([]*net.UDPConn, n),
		addrs:    make([]*net.UDPAddr, n),
		attached: make([]bool, n),
		handlers: make([]Handler, n),
	}
	copy(grown.conns, t.conns)
	copy(grown.addrs, t.addrs)
	copy(grown.attached, t.attached)
	copy(grown.handlers, t.handlers)
	return grown
}

// Rebind implements Rebinder: peer id moves to a freshly bound loopback
// socket — the live analogue of a mobile peer changing address. The
// move is make-before-break: the new socket (and its reader) is running
// before the table swap, and the old socket keeps draining until
// Net.Close, so a datagram in flight toward the old address is still
// received and counted. The cost is one lingering socket per rebind for
// the life of the net.
func (u *UDPNet) Rebind(id int) (string, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return "", ErrClosed
	}
	tbl := u.table.Load()
	if id < 0 || id >= len(tbl.conns) || !tbl.attached[id] {
		return "", fmt.Errorf("transport: cannot rebind unattached peer %d", id)
	}
	conn, err := bindLoopback()
	if err != nil {
		return "", fmt.Errorf("transport: rebind peer %d: %w", id, err)
	}
	u.readers.Add(1)
	go u.readLoop(conn, tbl.handlers[id])
	grown := tbl.grow(len(tbl.conns))
	u.retired = append(u.retired, grown.conns[id])
	grown.conns[id] = conn
	grown.addrs[id] = conn.LocalAddr().(*net.UDPAddr)
	u.table.Store(grown)
	return grown.addrs[id].String(), nil
}

func (u *UDPNet) readLoop(conn *net.UDPConn, h Handler) {
	defer u.readers.Done()
	buf := make([]byte, MaxDatagram+1)
	for {
		n, err := conn.Read(buf) // ReadFromUDP would allocate the unused source address
		if n > 0 {
			u.recvD.Add(1)
			h(clone(buf[:n]))
		}
		if err != nil {
			return // socket closed (or unrecoverable): reader exits
		}
	}
}

// Close implements Net: quiesce, then tear down. The quiesce wait is
// bounded; if the kernel genuinely lost datagrams (receive-buffer
// overrun), sentD never catches up, the wait times out, and the
// caller's sent/recv accounting shows the leak — which is the point.
func (u *UDPNet) Close() error {
	u.closeOnce.Do(func() {
		u.mu.Lock()
		u.closed = true // no further Attach can bind sockets
		u.mu.Unlock()
		deadline := time.Now().Add(time.Second)
		for u.recvD.Load() < u.sentD.Load() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		for _, c := range u.table.Load().conns {
			if c != nil {
				_ = c.Close()
			}
		}
		for _, c := range u.retired {
			_ = c.Close()
		}
		u.readers.Wait()
	})
	return nil
}

// Release implements Net.
func (u *UDPNet) Release(buf []byte) { put(buf) }

type udpEndpoint struct {
	net *UDPNet
	id  int
}

func (e *udpEndpoint) Send(to int, buf []byte) error {
	tbl := e.net.table.Load()
	if to < 0 || to >= len(tbl.addrs) || tbl.addrs[to] == nil {
		return fmt.Errorf("transport: no peer %d", to)
	}
	if len(buf) > MaxDatagram {
		return fmt.Errorf("%w: %d > %d bytes", ErrOversize, len(buf), MaxDatagram)
	}
	if _, err := tbl.conns[e.id].WriteToUDP(buf, tbl.addrs[to]); err != nil {
		return err
	}
	e.net.sentD.Add(1)
	return nil
}

func (e *udpEndpoint) LocalAddr() string { return e.net.table.Load().addrs[e.id].String() }
