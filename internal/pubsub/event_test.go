package pubsub

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEventAttrLookup(t *testing.T) {
	ev := mkEvent("news", Attr{"lang", String("en")})
	if v, ok := ev.Attr("lang"); !ok || v.Str() != "en" {
		t.Fatal("attr lookup failed")
	}
	if v, ok := ev.Attr("topic"); !ok || v.Str() != "news" {
		t.Fatal("pseudo attribute topic failed")
	}
	if _, ok := ev.Attr("missing"); ok {
		t.Fatal("missing attr reported present")
	}
}

func TestWithAttrDoesNotAlias(t *testing.T) {
	base := Event{Topic: "t", Attrs: []Attr{{"a", Num(1)}}}
	e1 := base.WithAttr("b", Num(2))
	e2 := base.WithAttr("c", Num(3))
	if _, ok := e1.Attr("c"); ok {
		t.Fatal("WithAttr aliased sibling copies")
	}
	if _, ok := e2.Attr("b"); ok {
		t.Fatal("WithAttr aliased sibling copies")
	}
	if len(base.Attrs) != 1 {
		t.Fatal("WithAttr mutated the receiver")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	ev := Event{
		ID:    EventID{Publisher: 7, Seq: 42},
		Topic: "stocks.nyse",
		Attrs: []Attr{
			{"symbol", String("ACME")},
			{"price", Num(101.5)},
			{"neg", Num(math.Inf(-1))},
			{"halted", Bool(true)},
			{"empty", String("")},
		},
		Payload: []byte{0, 1, 2, 255},
	}
	data, err := ev.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != ev.WireSize() {
		t.Fatalf("WireSize %d != encoded length %d", ev.WireSize(), len(data))
	}
	var got Event
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ev, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", ev, got)
	}
}

func TestMarshalEmptyEvent(t *testing.T) {
	ev := Event{}
	data, err := ev.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Event
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ev, got) {
		t.Fatalf("empty round trip mismatch: %+v", got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	ev := Event{Topic: "t", Attrs: []Attr{{"k", Num(1)}}, Payload: []byte("xyz")}
	data, err := ev.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every length must error, never panic.
	for cut := 0; cut < len(data); cut++ {
		var got Event
		if err := got.UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	// Trailing garbage must be rejected.
	var got Event
	if err := got.UnmarshalBinary(append(append([]byte{}, data...), 0xAA)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// Corrupt attribute kind must be rejected.
	bad := append([]byte{}, data...)
	// Header is 4+4+2+1 ("t")+2; next two bytes are key length, then key,
	// then the kind byte.
	kindOff := 4 + 4 + 2 + 1 + 2 + 2 + 1
	bad[kindOff] = 0xFF
	if err := got.UnmarshalBinary(bad); err == nil {
		t.Fatal("corrupt kind accepted")
	}
}

// TestFailedUnmarshalLeavesReceiver: a decode that fails changes nothing
// in the event it was decoding into.
func TestFailedUnmarshalLeavesReceiver(t *testing.T) {
	data, err := (&Event{ID: EventID{Publisher: 7, Seq: 9}, Topic: "new", Payload: []byte("data")}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want := Event{ID: EventID{Publisher: 1, Seq: 1}, Topic: "old", Payload: []byte("keep")}
	got := want
	if err := got.UnmarshalBinary(data[:len(data)-2]); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("truncated record: %v, want ErrShortBuffer", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("failed decode left the receiver as %+v, want %+v", got, want)
	}
}

func TestMarshalOversize(t *testing.T) {
	ev := Event{Topic: string(bytes.Repeat([]byte("x"), 70000))}
	if _, err := ev.MarshalBinary(); err == nil {
		t.Fatal("oversized topic accepted")
	}
	ev = Event{Attrs: []Attr{{string(bytes.Repeat([]byte("k"), 70000)), Num(1)}}}
	if _, err := ev.MarshalBinary(); err == nil {
		t.Fatal("oversized key accepted")
	}
	ev = Event{Attrs: []Attr{{"k", String(string(bytes.Repeat([]byte("v"), 70000)))}}}
	if _, err := ev.MarshalBinary(); err == nil {
		t.Fatal("oversized value accepted")
	}
	ev = Event{Attrs: []Attr{{"k", Value{}}}}
	if _, err := ev.MarshalBinary(); err == nil {
		t.Fatal("invalid value accepted")
	}
}

// Property: marshal/unmarshal round-trips arbitrary generated events, and
// WireSize always equals the encoded length.
func TestQuickCodecRoundTrip(t *testing.T) {
	type rawAttr struct {
		Key  string
		Kind uint8
		S    string
		N    float64
		B    bool
	}
	f := func(pub, seq uint32, topic string, rawAttrs []rawAttr, payload []byte) bool {
		if len(topic) > 1000 {
			topic = topic[:1000]
		}
		ev := Event{ID: EventID{pub, seq}, Topic: topic, Payload: payload}
		for _, ra := range rawAttrs {
			if len(ra.Key) > 100 {
				ra.Key = ra.Key[:100]
			}
			var v Value
			switch ra.Kind % 3 {
			case 0:
				if len(ra.S) > 1000 {
					ra.S = ra.S[:1000]
				}
				v = String(ra.S)
			case 1:
				if math.IsNaN(ra.N) {
					ra.N = 0
				}
				v = Num(ra.N)
			case 2:
				v = Bool(ra.B)
			}
			ev.Attrs = append(ev.Attrs, Attr{ra.Key, v})
		}
		data, err := ev.MarshalBinary()
		if err != nil {
			return false
		}
		if len(data) != ev.WireSize() {
			return false
		}
		var got Event
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		if len(ev.Payload) == 0 {
			ev.Payload = nil
		}
		return reflect.DeepEqual(ev, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

// Property: UnmarshalBinary never panics on arbitrary bytes.
func TestQuickUnmarshalArbitraryBytes(t *testing.T) {
	f := func(data []byte) bool {
		var ev Event
		_ = ev.UnmarshalBinary(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	ev := Event{
		ID:    EventID{1, 2},
		Topic: "stocks.nyse",
		Attrs: []Attr{
			{"symbol", String("ACME")},
			{"price", Num(101.5)},
			{"volume", Num(20000)},
		},
		Payload: bytes.Repeat([]byte("p"), 64),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ev.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	ev := Event{
		ID:    EventID{1, 2},
		Topic: "stocks.nyse",
		Attrs: []Attr{
			{"symbol", String("ACME")},
			{"price", Num(101.5)},
		},
		Payload: bytes.Repeat([]byte("p"), 64),
	}
	data, err := ev.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got Event
		if err := got.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}
