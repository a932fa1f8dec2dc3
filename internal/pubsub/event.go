package pubsub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// EventID uniquely identifies a published event as (publisher, sequence).
// It is comparable and suitable as a map key, which is how dissemination
// layers deduplicate.
type EventID struct {
	Publisher uint32
	Seq       uint32
}

func (id EventID) String() string { return fmt.Sprintf("%d/%d", id.Publisher, id.Seq) }

// Event is a published notification: a topic, optional typed attributes
// for content-based filtering, and an opaque payload.
type Event struct {
	ID      EventID
	Topic   string
	Attrs   []Attr
	Payload []byte
}

// Attr returns the value of the named attribute. The pseudo attribute
// "topic" resolves to the event's topic.
func (e *Event) Attr(key string) (Value, bool) {
	if key == "topic" {
		return String(e.Topic), true
	}
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return Value{}, false
}

// WithAttr returns a copy of the event with the attribute appended. It is
// a convenience for building events fluently in examples and tests.
func (e Event) WithAttr(key string, v Value) Event {
	attrs := make([]Attr, len(e.Attrs), len(e.Attrs)+1)
	copy(attrs, e.Attrs)
	e.Attrs = append(attrs, Attr{Key: key, Val: v})
	return e
}

const eventHeaderSize = 4 + 4 + 2 + 2 + 4 // id + topic len + attr count + payload len

// WireSize returns the exact length of the event's record: the bytes
// AppendBinary appends, and what every message carrying the event pays
// for it. Fairness accounting is in bytes, so dissemination layers use
// WireSize to charge contribution without actually serialising in
// simulation runs.
func (e *Event) WireSize() int {
	n := eventHeaderSize + len(e.Topic) + len(e.Payload)
	for _, a := range e.Attrs {
		n += 2 + len(a.Key) + a.Val.wireSize()
	}
	return n
}

// Codec errors. Decode errors wrap one of them.
var (
	ErrShortBuffer = errors.New("pubsub: short buffer")
	ErrCorrupt     = errors.New("pubsub: corrupt event encoding")
)

// MarshalBinary encodes the event's record into a new slice.
func (e *Event) MarshalBinary() ([]byte, error) {
	return e.AppendBinary(make([]byte, 0, e.WireSize()))
}

// AppendBinary appends the event's record to dst: exactly WireSize bytes,
// compact, big-endian and length-prefixed at every variable field —
// id(8) topicLen(2) topic attrCount(2), per attribute keyLen(2) key
// kind(1) and a string's len(2) and bytes, a number's float64 bits(8) or
// a bool(1), then payloadLen(4) payload. It is the one encoder of a
// record and ReadRecord its one walker; the wire package frames records
// and never reads or writes their fields. An event with a field beyond
// its length prefix or an invalid attribute value is refused, and dst
// comes back unchanged.
func (e *Event) AppendBinary(dst []byte) ([]byte, error) {
	if len(e.Topic) > math.MaxUint16 || len(e.Attrs) > math.MaxUint16 || uint64(len(e.Payload)) > math.MaxUint32 {
		return dst, fmt.Errorf("pubsub: topic of %d bytes, %d attributes or payload of %d bytes is too large", len(e.Topic), len(e.Attrs), len(e.Payload))
	}
	n := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, e.ID.Publisher)
	dst = binary.BigEndian.AppendUint32(dst, e.ID.Seq)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.Topic)))
	dst = append(dst, e.Topic...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(e.Attrs)))
	for i, a := range e.Attrs {
		if len(a.Key) > math.MaxUint16 || len(a.Val.str) > math.MaxUint16 {
			return dst[:n], fmt.Errorf("pubsub: attribute %d: key or value beyond 65535 bytes", i)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(a.Key)))
		dst = append(dst, a.Key...)
		dst = append(dst, byte(a.Val.kind))
		switch a.Val.kind {
		case KindString:
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(a.Val.str)))
			dst = append(dst, a.Val.str...)
		case KindNum:
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Val.num))
		case KindBool:
			if a.Val.b {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		default:
			return dst[:n], fmt.Errorf("pubsub: attribute %d has an invalid value", i)
		}
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.Payload)))
	return append(dst, e.Payload...), nil
}

// UnmarshalBinary decodes one record, which must be all of data, into e.
// On error e is left as it was.
func (e *Event) UnmarshalBinary(data []byte) error {
	_, _, err := ReadRecord(data, e, nil)
	return err
}

// Memory is where a decoded event's topic and payload come from: each
// method returns a copy of b that nothing else writes to.
type Memory interface {
	Topic(b []byte) string
	Payload(b []byte) []byte
}

// fresh is the Memory of a nil one: a new allocation per copy.
type fresh struct{}

func (fresh) Topic(b []byte) string   { return string(b) }
func (fresh) Payload(b []byte) []byte { return append([]byte(nil), b...) }

// ReadRecord walks the record at the start of buf, applying every
// well-formedness check, and returns its id and length. It never panics
// or reads outside buf, and a count its bytes cannot hold is refused
// before anything is allocated. With a nil e it only scans and allocates
// nothing; otherwise the record must be all of buf, and only on success
// is *e set to the event it encodes, which owns all of its memory (the
// topic and payload from mem, nil for fresh copies) and aliases nothing
// in buf.
func ReadRecord(buf []byte, e *Event, mem Memory) (EventID, int, error) {
	r := Reader{Buf: buf, Short: ErrShortBuffer}
	id := EventID{Publisher: r.U32(), Seq: r.U32()}
	topic := r.Take(int(r.U16()))
	nattrs := int(r.U16())
	// Each attribute is at least keyLen(2) kind(1) bool(1).
	if rem := len(buf) - r.Off; r.Err == nil && nattrs*4 > rem {
		r.Fail(fmt.Errorf("%w: %d attributes cannot fit in %d bytes", ErrCorrupt, nattrs, rem))
	}
	var attrs []Attr
	if e != nil && nattrs > 0 && r.Err == nil {
		attrs = make([]Attr, 0, nattrs)
	}
	for i := 0; i < nattrs && r.Err == nil; i++ {
		key := r.Take(int(r.U16()))
		var v Value
		switch kind := Kind(r.U8()); kind {
		case KindString:
			if s := r.Take(int(r.U16())); e != nil {
				v = String(string(s))
			}
		case KindNum:
			v = Num(math.Float64frombits(r.U64()))
		case KindBool:
			b := r.U8()
			if b > 1 {
				r.Fail(fmt.Errorf("%w: bool byte %d", ErrCorrupt, b))
			}
			v = Bool(b == 1)
		default:
			r.Fail(fmt.Errorf("%w: attribute kind %d", ErrCorrupt, kind))
		}
		if e != nil && r.Err == nil {
			attrs = append(attrs, Attr{Key: string(key), Val: v})
		}
	}
	payload := r.Take(int(r.U32()))
	switch {
	case r.Err != nil:
		return id, 0, r.Err
	case e == nil:
		return id, r.Off, nil
	case r.Off != len(buf):
		return id, 0, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(buf)-r.Off)
	}
	if mem == nil {
		mem = fresh{}
	}
	*e = Event{ID: id, Topic: mem.Topic(topic), Attrs: attrs}
	if len(payload) > 0 {
		e.Payload = mem.Payload(payload)
	}
	return id, r.Off, nil
}

// Reader is a bounds-checked cursor over Buf from Off: it records the
// first error in Err and then reads zeros, so a decoder reads linearly
// without per-field branching. A read past the end fails with Short
// wrapped — ErrShortBuffer for a record, the caller's own sentinel for
// what frames it (internal/wire's envelopes).
type Reader struct {
	Buf   []byte
	Off   int
	Err   error
	Short error
}

// Fail records err unless an earlier error is already recorded.
func (r *Reader) Fail(err error) {
	if r.Err == nil {
		r.Err = err
	}
}

// Take returns the next n bytes, aliasing Buf, or nil once failed.
func (r *Reader) Take(n int) []byte {
	if r.Err != nil {
		return nil
	}
	if n < 0 || n > len(r.Buf)-r.Off {
		r.Fail(fmt.Errorf("%w: need %d bytes at offset %d of %d", r.Short, n, r.Off, len(r.Buf)))
		return nil
	}
	b := r.Buf[r.Off : r.Off+n]
	r.Off += n
	return b
}

// fixed takes n ≤ 8 bytes, or reads zeros once the reader has failed.
func (r *Reader) fixed(n int) []byte {
	if b := r.Take(n); b != nil {
		return b
	}
	return zeros[:n]
}

var zeros [8]byte

func (r *Reader) U8() byte    { return r.fixed(1)[0] }
func (r *Reader) U16() uint16 { return binary.BigEndian.Uint16(r.fixed(2)) }
func (r *Reader) U32() uint32 { return binary.BigEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64 { return binary.BigEndian.Uint64(r.fixed(8)) }
