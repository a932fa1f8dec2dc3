// Package simnet simulates a point-to-point message network on top of the
// eventsim kernel: configurable latency, i.i.d. message loss, crash/stop
// failures, and network partitions. It counts only network-wide totals
// (TotalTraffic); what each process sent and received is booked by its
// driver in the fairness ledger, the paper's one per-process account.
package simnet

import (
	"math/rand"
	"time"

	"fairgossip/internal/eventsim"
)

// NodeID is a dense index identifying a simulated process.
type NodeID int

// None is the NodeID zero-value sentinel for "no node".
const None NodeID = -1

// Message is a point-to-point datagram. Payload is protocol-defined and
// passed by reference (the simulator does not serialise); Size is the
// number of bytes the message would occupy on the wire and is what the
// traffic accounting charges.
type Message struct {
	From    NodeID
	To      NodeID
	Payload any
	Size    int
}

// Handler receives delivered messages. Implementations run on the
// simulator goroutine and must not block.
type Handler interface {
	HandleMessage(msg Message)
}

// Refcounted payloads participate in the network's in-flight lifecycle:
// the network retains once per message it accepts into flight (scheduled
// locally or handed to the remote-shard hook) and releases once the
// delivery attempt has fully completed — after the handler returns, or
// at a delivery-time drop. A pooled payload may therefore be recycled
// the moment its last release fires, never earlier, which is what makes
// sharing one envelope across a whole gossip fanout safe.
type Refcounted interface {
	Retain()
	Release()
}

// RemoteFunc receives a message whose destination lives on another
// shard's network, as the kernel record it would have been scheduled in,
// along with the one-way delay already drawn from this shard's RNG. The
// sharded cluster's implementation appends to a per-(source, destination)
// mailbox that is merged — in fixed shard order — into the destination
// network via InjectAt at round barriers.
type RemoteFunc func(m eventsim.Msg, delay time.Duration)

// LatencyModel draws the one-way delay for a message.
type LatencyModel func(rng *rand.Rand, from, to NodeID) time.Duration

// ConstantLatency returns a model with fixed one-way delay d.
func ConstantLatency(d time.Duration) LatencyModel {
	return func(*rand.Rand, NodeID, NodeID) time.Duration { return d }
}

// UniformLatency returns a model drawing delays uniformly from [lo, hi).
func UniformLatency(lo, hi time.Duration) LatencyModel {
	if hi <= lo {
		return ConstantLatency(lo)
	}
	return func(rng *rand.Rand, _, _ NodeID) time.Duration {
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}
}

// Traffic is the network-wide message and byte count.
type Traffic struct {
	MsgsSent  uint64
	BytesSent uint64
	MsgsRecv  uint64
	Dropped   uint64 // messages the network dropped
}

// Config parameterises a Network.
type Config struct {
	// Latency is the one-way delay model. Nil means 1ms constant.
	Latency LatencyModel
	// Loss is the i.i.d. probability in [0,1] that a message is dropped.
	Loss float64
}

// Network is a simulated datagram network. It is driven entirely by the
// eventsim simulator and is not safe for concurrent use.
type Network struct {
	sim      *eventsim.Sim
	cfg      Config
	handlers []Handler // nil entries are remote placeholders (sharded runs)
	up       []bool
	group    []uint8 // partition side (0 or 1); messages cross sides only when healed
	split    bool
	total    Traffic
	remote   RemoteFunc
}

// New creates an empty network over sim.
func New(sim *eventsim.Sim, cfg Config) *Network {
	if cfg.Latency == nil {
		cfg.Latency = ConstantLatency(time.Millisecond)
	}
	if cfg.Loss < 0 {
		cfg.Loss = 0
	}
	if cfg.Loss > 1 {
		cfg.Loss = 1
	}
	return &Network{sim: sim, cfg: cfg}
}

// Grow makes room for k more ids, so that registering them (AddNode,
// AddRemote) sizes the tables once instead of growing them by append.
func (n *Network) Grow(k int) {
	size := len(n.handlers) + k
	n.handlers = append(make([]Handler, 0, size), n.handlers...)
	n.up = append(make([]bool, 0, size), n.up...)
	n.group = append(make([]uint8, 0, size), n.group...)
}

// AddNode registers a handler and returns its NodeID. Nodes start up.
func (n *Network) AddNode(h Handler) NodeID {
	id := NodeID(len(n.handlers))
	n.handlers = append(n.handlers, h)
	n.up = append(n.up, true)
	n.group = append(n.group, 0)
	return id
}

// AddRemote reserves the next NodeID for a node that lives on another
// shard's network. The slot has no handler; sends toward it are handed
// to the RemoteFunc installed with SetRemote.
func (n *Network) AddRemote() NodeID {
	id := NodeID(len(n.handlers))
	n.handlers = append(n.handlers, nil)
	n.up = append(n.up, true)
	n.group = append(n.group, 0)
	return id
}

// SetRemote installs the cross-shard hand-off for messages addressed to
// AddRemote placeholders. Without one, such sends count as drops.
func (n *Network) SetRemote(fn RemoteFunc) { n.remote = fn }

// InjectAt schedules a message that already cleared the source shard's
// loss and latency draws for local delivery at absolute virtual time at
// (coerced to Now when in the past — the barrier-merge case for
// messages whose nominal delivery time fell inside the closed window).
// Crash and partition state still apply at delivery time, exactly as
// they would for a locally-scheduled message.
func (n *Network) InjectAt(at time.Duration, m eventsim.Msg) {
	n.sim.ScheduleMsgAt(at, n, m)
}

// Up reports whether the node is currently up.
func (n *Network) Up(id NodeID) bool {
	return n.valid(id) && n.up[id]
}

// SetUp crashes (up=false) or restarts (up=true) a node. Messages in
// flight toward a down node are dropped at delivery time; a down node's
// sends are dropped immediately.
func (n *Network) SetUp(id NodeID, up bool) {
	if n.valid(id) {
		n.up[id] = up
	}
}

// Partition splits the network: nodes in side keep talking to each other
// but lose connectivity with everyone else until Heal is called.
func (n *Network) Partition(side []NodeID) {
	for i := range n.group {
		n.group[i] = 0
	}
	for _, id := range side {
		if n.valid(id) {
			n.group[id] = 1
		}
	}
	n.split = true
}

// Heal removes any partition.
func (n *Network) Heal() { n.split = false }

// SetLatency swaps the one-way delay model mid-run. Nil restores the
// 1ms constant default. Scenario shaping uses it to impose WAN-like
// delay/jitter profiles on the simulated column; messages already in
// flight keep the delay they were scheduled with.
func (n *Network) SetLatency(m LatencyModel) {
	if m == nil {
		m = ConstantLatency(time.Millisecond)
	}
	n.cfg.Latency = m
}

// SetLoss changes the i.i.d. drop probability mid-run (clamped to [0,1]).
// Experiments use it to inject lossy phases.
func (n *Network) SetLoss(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	n.cfg.Loss = p
}

// TotalTraffic returns network-wide counters.
func (n *Network) TotalTraffic() Traffic { return n.total }

// Send queues a message for delivery. Loss, partitions and crashes apply.
// Sending from or to an unknown node is a silent drop (dynamic systems
// routinely address departed peers; protocols observe it as loss).
// TestSendDeliverZeroAlloc pins the send→deliver cycle at zero
// allocations.
func (n *Network) Send(from, to NodeID, payload any, size int) {
	if size < 0 {
		size = 0
	}
	if !n.valid(from) || !n.valid(to) || !n.up[from] {
		return
	}
	n.total.MsgsSent++
	n.total.BytesSent += uint64(size)

	if n.cfg.Loss > 0 && n.sim.Rand().Float64() < n.cfg.Loss {
		n.total.Dropped++
		return
	}
	delay := n.cfg.Latency(n.sim.Rand(), from, to)
	m := eventsim.Msg{From: int32(from), To: int32(to), Size: int32(size), Payload: payload}
	if n.handlers[to] == nil {
		// The destination lives on another shard: hand the message (and
		// the delay already drawn from this shard's stream) to the
		// mailbox hook. A missing hook is a wiring error observed as a
		// counted drop so conservation survives it.
		if n.remote == nil {
			n.total.Dropped++
			return
		}
		if rc, ok := payload.(Refcounted); ok {
			rc.Retain()
		}
		n.remote(m, delay)
		return
	}
	if rc, ok := payload.(Refcounted); ok {
		rc.Retain()
	}
	// The in-flight message rides inline in a pooled kernel event record:
	// no per-send event allocation and no delivery closure (the old
	// `func() { n.deliver(msg) }` capture cost one allocation per message).
	n.sim.ScheduleMsg(delay, n, m)
}

// HandleSimMsg implements eventsim.MsgHandler: in-flight messages come
// back from the kernel at their delivery time.
func (n *Network) HandleSimMsg(m eventsim.Msg) {
	n.deliver(Message{From: NodeID(m.From), To: NodeID(m.To), Payload: m.Payload, Size: int(m.Size)})
}

func (n *Network) deliver(msg Message) {
	if !n.up[msg.To] || (n.split && n.group[msg.From] != n.group[msg.To]) {
		n.total.Dropped++
		n.releasePayload(msg.Payload)
		return
	}
	n.total.MsgsRecv++
	n.handlers[msg.To].HandleMessage(msg)
	n.releasePayload(msg.Payload)
}

// releasePayload ends the in-flight retention taken in Send: the
// delivery attempt is over and a pooled payload may recycle.
func (n *Network) releasePayload(p any) {
	if rc, ok := p.(Refcounted); ok {
		rc.Release()
	}
}

func (n *Network) valid(id NodeID) bool {
	return id >= 0 && int(id) < len(n.handlers)
}
