package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fairgossip/internal/pubsub"
)

// sampleEvents covers the full vocabulary: every attribute kind, empty
// and non-empty topics/payloads, no attrs and many attrs.
func sampleEvents() []*pubsub.Event {
	return []*pubsub.Event{
		{ID: pubsub.EventID{Publisher: 0, Seq: 1}},
		{ID: pubsub.EventID{Publisher: 3, Seq: 9}, Topic: "news.eu", Payload: []byte("payload")},
		{
			ID:    pubsub.EventID{Publisher: math.MaxUint32, Seq: math.MaxUint32},
			Topic: "ticks",
			Attrs: []pubsub.Attr{
				{Key: "symbol", Val: pubsub.String("ACME")},
				{Key: "price", Val: pubsub.Num(101.25)},
				{Key: "halted", Val: pubsub.Bool(false)},
				{Key: "hot", Val: pubsub.Bool(true)},
				{Key: "", Val: pubsub.String("")},
				{Key: "nan", Val: pubsub.Num(math.NaN())},
				{Key: "inf", Val: pubsub.Num(math.Inf(-1))},
				{Key: "zero", Val: pubsub.Num(0)},
			},
			Payload: bytes.Repeat([]byte{0, 1, 2, 0xff}, 64),
		},
		{ID: pubsub.EventID{Publisher: 7, Seq: 2}, Topic: strings.Repeat("t", 300)},
	}
}

// sampleMsgs covers the family: every kind with the records it carries,
// the walk kinds with origin and hops, every optional part alone, and
// every part at once.
func sampleMsgs() []Msg {
	evs := sampleEvents()[:2]
	ents := []ViewEntry{{ID: 1, Age: 0}, {ID: math.MaxUint32, Age: math.MaxUint16}}
	ads := []FPAd{{ID: 4, FP: 5}, {ID: math.MaxUint32, FP: math.MaxUint64}}
	walk := &Parts{Origin: 9, Hops: 16, Topic: "news"}
	all := &Parts{Origin: 3, Hops: 1, Topic: "news", Ads: ents, FP: 0xfeed, FPAds: ads, Pad: 512}
	return []Msg{
		{Kind: KindEvents, Events: evs},
		{Kind: KindOffer, Entries: ents},
		{Kind: KindReply, Entries: ents},
		{Kind: KindJoin},
		{Kind: KindLeave, Entries: ents},
		{Kind: KindSubWalk, Parts: walk},
		{Kind: KindSubAck, Entries: ents, Parts: &Parts{Topic: "news"}},
		{Kind: KindPubWalk, Events: evs[:1], Parts: walk},
		{Kind: KindDigest, Parts: &Parts{IDs: []pubsub.EventID{{Publisher: 1, Seq: 2}, {Publisher: 3, Seq: 4}}}},
		{Kind: KindPull, Parts: &Parts{IDs: []pubsub.EventID{{Publisher: math.MaxUint32, Seq: 1}}}},
		{Kind: KindLazy, Events: evs, Parts: &Parts{IDs: []pubsub.EventID{{Publisher: 1, Seq: 2}, {Publisher: 3, Seq: 4}}}},
		{Kind: KindLazy, Parts: &Parts{IDs: []pubsub.EventID{{Publisher: math.MaxUint32, Seq: 1}}, Pad: 512}},
		{Kind: KindEvents, Events: evs, Parts: &Parts{Topic: "news"}},
		{Kind: KindEvents, Events: evs, Parts: &Parts{Ads: ents}},
		{Kind: KindEvents, Events: evs, Parts: &Parts{FP: 0xfeed}},
		{Kind: KindEvents, Events: evs, Parts: &Parts{FPAds: ads}},
		{Kind: KindEvents, Events: evs, Parts: &Parts{Pad: 512}},
		{Kind: KindPubWalk, Events: evs, Parts: all},
		{Kind: KindSubAck, Entries: ents, Parts: all},
		{Kind: KindEager, Hop: 1, Events: evs},
		{Kind: KindEager, Hop: math.MaxUint8, Events: evs[:1], Parts: &Parts{Topic: "news", Ads: ents, Pad: 512}},
		{Kind: KindEager, Events: evs, Parts: &Parts{FP: 0xfeed, FPAds: ads}},
	}
}

// msgOf is the Msg a scanned envelope holds, its events materialised
// through d.
func msgOf(t testing.TB, env *Envelope, d *Decoder) Msg {
	return Msg{Kind: env.Kind, Hop: env.Hop, Events: decodeAll(t, env, d), Entries: env.Entries, Parts: &env.Parts}
}

func eventsEqual(t *testing.T, got, want *pubsub.Event) {
	t.Helper()
	if got.ID != want.ID || got.Topic != want.Topic {
		t.Fatalf("id/topic mismatch: got %v %q, want %v %q", got.ID, got.Topic, want.ID, want.Topic)
	}
	if len(got.Attrs) != len(want.Attrs) {
		t.Fatalf("attr count %d, want %d", len(got.Attrs), len(want.Attrs))
	}
	for i := range want.Attrs {
		g, w := got.Attrs[i], want.Attrs[i]
		if g.Key != w.Key || g.Val.Kind() != w.Val.Kind() {
			t.Fatalf("attr %d: got %v, want %v", i, g, w)
		}
		// NaN != NaN, so compare numeric payloads at the bit level.
		if g.Val.Kind() == pubsub.KindNum {
			if math.Float64bits(g.Val.NumVal()) != math.Float64bits(w.Val.NumVal()) {
				t.Fatalf("attr %d numeric bits differ", i)
			}
		} else if !g.Val.Equal(w.Val) {
			t.Fatalf("attr %d: got %v, want %v", i, g, w)
		}
	}
	if !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("payload mismatch: %q vs %q", got.Payload, want.Payload)
	}
}

// decodeAll materialises every record of a scanned envelope through d,
// checking the record contract on the way: the id read by the scan is
// the event's, Raw is exactly the event's WireSize bytes and cannot be
// appended into its neighbour.
func decodeAll(t testing.TB, env *Envelope, d *Decoder) []*pubsub.Event {
	t.Helper()
	events := make([]*pubsub.Event, len(env.Records))
	for i, rec := range env.Records {
		ev, err := rec.Decode(d)
		if err != nil {
			t.Fatalf("record %d: scan accepted what Decode rejects: %v", i, err)
		}
		if rec.ID != ev.ID {
			t.Fatalf("record %d: scanned id %v, decoded id %v", i, rec.ID, ev.ID)
		}
		if len(rec.Raw) != ev.WireSize() || cap(rec.Raw) != len(rec.Raw) {
			t.Fatalf("record %d: Raw len %d cap %d, WireSize %d", i, len(rec.Raw), cap(rec.Raw), ev.WireSize())
		}
		events[i] = ev
	}
	return events
}

// recordFixture is one event record written out by hand: id 7/9, topic
// "t", a string, a number and a bool attribute, and a 2-byte payload.
// It pins the record layout as data, so the codec cannot drift by
// agreeing with itself.
const recordFixture = "00000007" + "00000009" + // id
	"0001" + "74" + // topic "t"
	"0003" + // three attributes
	"0001" + "73" + "01" + "0001" + "76" + // s: string "v"
	"0001" + "6e" + "02" + "3ff8000000000000" + // n: number 1.5
	"0001" + "62" + "03" + "01" + // b: bool true
	"00000002" + "6869" // payload "hi"

// TestEventRecordMatchesPubsubCodec: the record the envelope carries is
// pubsub's one encoding — the hand-written fixture, byte for byte, which
// both entry points (pubsub.Event.UnmarshalBinary and a scanned
// envelope's EventRecord.Decode) read back — and every sample event
// encodes to exactly WireSize bytes that decode to it, the invariant that
// makes encoded size equal accounted size.
func TestEventRecordMatchesPubsubCodec(t *testing.T) {
	fixture := &pubsub.Event{ID: pubsub.EventID{Publisher: 7, Seq: 9}, Topic: "t", Attrs: []pubsub.Attr{
		{Key: "s", Val: pubsub.String("v")},
		{Key: "n", Val: pubsub.Num(1.5)},
		{Key: "b", Val: pubsub.Bool(true)},
	}, Payload: []byte("hi")}
	raw, err := fixture.AppendBinary(nil)
	if err != nil || hex.EncodeToString(raw) != recordFixture {
		t.Fatalf("AppendBinary: %v\n got %x\nwant %s", err, raw, recordFixture)
	}
	env, err := AppendEnvelope(nil, 5, []*pubsub.Event{fixture})
	if want := "fa15" + "02" + "00" + "00000005" + "0001" + recordFixture; err != nil || hex.EncodeToString(env) != want {
		t.Fatalf("AppendEnvelope: %v\n got %x\nwant %s", err, env, want)
	}
	var scanned Envelope
	if err := DecodeEnvelope(env, &scanned); err != nil || len(scanned.Records) != 1 {
		t.Fatalf("DecodeEnvelope: %v, %d records", err, len(scanned.Records))
	}
	eventsEqual(t, decodeAll(t, &scanned, nil)[0], fixture)
	var pb pubsub.Event
	if err := pb.UnmarshalBinary(raw); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	eventsEqual(t, &pb, fixture)

	for i, ev := range sampleEvents() {
		got, err := ev.AppendBinary(nil)
		if err != nil {
			t.Fatalf("event %d: AppendBinary: %v", i, err)
		}
		if len(got) != ev.WireSize() {
			t.Fatalf("event %d: encoded %d bytes, WireSize says %d", i, len(got), ev.WireSize())
		}
		back, err := EventRecord{Raw: got}.Decode(nil)
		if err != nil {
			t.Fatalf("event %d: Decode: %v", i, err)
		}
		eventsEqual(t, back, ev)
		if err := pb.UnmarshalBinary(got); err != nil {
			t.Fatalf("event %d: UnmarshalBinary: %v", i, err)
		}
		eventsEqual(t, &pb, ev)
	}
}

// TestHostileAttributeCountAllocatesNothing: a 65 547-byte record that
// claims 65 535 attributes cannot hold them (each takes at least 4
// bytes), so both entry points refuse it before allocating the
// attributes — 3.5 MiB of them.
func TestHostileAttributeCountAllocatesNothing(t *testing.T) {
	rec := make([]byte, 65547)
	rec[10], rec[11] = 0xff, 0xff // attrCount, after id(8) and an empty topic's len(2)
	env := append([]byte{0xfa, 0x15, Version, byte(KindEvents), 0, 0, 0, 1, 0, 1}, rec...)
	for name, decode := range map[string]func() error{
		"UnmarshalBinary": func() error { return new(pubsub.Event).UnmarshalBinary(rec) },
		"DecodeEnvelope":  func() error { return DecodeEnvelope(env, new(Envelope)) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s accepted 65535 attributes in %d bytes", name, len(rec))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
			t.Fatalf("%s allocated %d bytes refusing a hostile attribute count", name, alloc)
		}
	}
}

// TestEnvelopeRoundTrip: multi-event envelopes round-trip exactly and
// the size matches EnvelopeSize.
func TestEnvelopeRoundTrip(t *testing.T) {
	events := sampleEvents()
	for n := 0; n <= len(events); n++ {
		batch := events[:n]
		buf, err := AppendEnvelope(nil, 42, batch)
		if err != nil {
			t.Fatalf("n=%d: AppendEnvelope: %v", n, err)
		}
		if len(buf) != EnvelopeSize(batch) {
			t.Fatalf("n=%d: encoded %d bytes, EnvelopeSize says %d", n, len(buf), EnvelopeSize(batch))
		}
		var env Envelope
		if err := DecodeEnvelope(buf, &env); err != nil {
			t.Fatalf("n=%d: DecodeEnvelope: %v", n, err)
		}
		if env.Sender != 42 {
			t.Fatalf("n=%d: sender %d, want 42", n, env.Sender)
		}
		if len(env.Records) != n {
			t.Fatalf("n=%d: scanned %d records", n, len(env.Records))
		}
		got := decodeAll(t, &env, nil)
		for i := range batch {
			eventsEqual(t, got[i], batch[i])
		}
		// The records tile the body: back to back, nothing between them.
		var body []byte
		for _, rec := range env.Records {
			body = append(body, rec.Raw...)
		}
		if !bytes.Equal(body, buf[HeaderSize:]) {
			t.Fatalf("n=%d: records concatenated are not the body", n)
		}
		// Canonical: re-encoding the decoded envelope reproduces the bytes.
		back, err := AppendEnvelope(nil, env.Sender, got)
		if err != nil {
			t.Fatalf("n=%d: re-encode: %v", n, err)
		}
		if !bytes.Equal(back, buf) {
			t.Fatalf("n=%d: decode→encode is not the identity", n)
		}
	}
}

// TestLazyPushIsEventsThenIDs: a lazy push is the KindEvents envelope of
// the same events, its kind byte changed, followed by count(2) and the
// ids — and it scans back to those records and ids.
func TestLazyPushIsEventsThenIDs(t *testing.T) {
	events := sampleEvents()
	ids := []pubsub.EventID{{Publisher: 1, Seq: 2}, {Publisher: math.MaxUint32, Seq: 0}, {Publisher: 0, Seq: 9}}
	for n := 0; n <= len(events); n++ {
		plain, err := AppendEnvelope(nil, 42, events[:n])
		if err != nil {
			t.Fatal(err)
		}
		m := Msg{Kind: KindLazy, Events: events[:n], Parts: &Parts{IDs: ids}}
		buf, err := Append(nil, 42, &m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := append(mutate(plain, 3, byte(KindLazy)), 0, byte(len(ids)))
		want = appendIDs(want, ids)
		if !bytes.Equal(buf, want) || m.Size() != len(plain)+2+len(ids)*IDWireSize {
			t.Fatalf("n=%d: lazy push encodes to\n %x\nwant\n %x (Size %d)", n, buf, want, m.Size())
		}
		var env Envelope
		if err := DecodeEnvelope(buf, &env); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if env.Kind != KindLazy || len(env.Records) != n || !slices.Equal(env.Parts.IDs, ids) {
			t.Fatalf("n=%d: scanned kind %d, %d records, ids %v", n, env.Kind, len(env.Records), env.Parts.IDs)
		}
	}
}

// TestEagerPushIsHopThenEvents: an eager push is the KindEvents envelope
// of the same events, its kind byte changed and its hop after the header,
// one byte more — and it scans back to that hop and those records, any
// hop from 0 to 255. A scan of another kind after it reads hop 0.
func TestEagerPushIsHopThenEvents(t *testing.T) {
	events := sampleEvents()
	for n := 0; n <= len(events); n++ {
		plain, err := AppendEnvelope(nil, 42, events[:n])
		if err != nil {
			t.Fatal(err)
		}
		for _, hop := range []uint8{0, 1, 3, math.MaxUint8} {
			m := Msg{Kind: KindEager, Hop: hop, Events: events[:n]}
			buf, err := Append(nil, 42, &m)
			if err != nil {
				t.Fatalf("n=%d hop %d: %v", n, hop, err)
			}
			want := append(mutate(plain, 3, byte(KindEager))[:HeaderSize:HeaderSize], hop)
			want = append(want, plain[HeaderSize:]...)
			if !bytes.Equal(buf, want) || m.Size() != len(plain)+hopSize {
				t.Fatalf("n=%d hop %d: eager push encodes to\n %x\nwant\n %x (Size %d)", n, hop, buf, want, m.Size())
			}
			var env Envelope
			if err := DecodeEnvelope(buf, &env); err != nil {
				t.Fatalf("n=%d hop %d: %v", n, hop, err)
			}
			if env.Kind != KindEager || env.Hop != hop || len(env.Records) != n {
				t.Fatalf("n=%d hop %d: scanned kind %d, hop %d, %d records", n, hop, env.Kind, env.Hop, len(env.Records))
			}
			if err := DecodeEnvelope(plain, &env); err != nil || env.Hop != 0 {
				t.Fatalf("n=%d: a KindEvents scan after a hop-%d push reads hop %d (%v)", n, hop, env.Hop, err)
			}
		}
	}
}

// TestSizeIsEncoded: for every kind and every optional part, the size a
// sender is charged is the length Append encodes, the scan accepts the
// bytes, and re-encoding what it read reproduces them — the one byte
// model both drivers charge by.
func TestSizeIsEncoded(t *testing.T) {
	seen := make(map[Kind]bool)
	for i, m := range sampleMsgs() {
		buf, err := Append(nil, 5, &m)
		if err != nil {
			t.Fatalf("msg %d (kind %d): %v", i, m.Kind, err)
		}
		if len(buf) != m.Size() {
			t.Fatalf("msg %d (kind %d): encoded %d bytes, Size says %d", i, m.Kind, len(buf), m.Size())
		}
		var env Envelope
		if err := DecodeEnvelope(buf, &env); err != nil {
			t.Fatalf("msg %d (kind %d): scan rejects its encoding: %v", i, m.Kind, err)
		}
		rebuilt := msgOf(t, &env, nil)
		back, err := Append(nil, env.Sender, &rebuilt)
		if err != nil || !bytes.Equal(back, buf) || env.Kind != m.Kind {
			t.Fatalf("msg %d (kind %d): decode→encode is not the identity (%v)", i, m.Kind, err)
		}
		seen[m.Kind] = true
	}
	for k := Kind(0); k < NumKinds; k++ {
		if !seen[k] {
			t.Errorf("kind %d has no sample message", k)
		}
	}
	if _, err := Append(nil, 1, &Msg{Kind: NumKinds}); err == nil {
		t.Fatal("Append encoded a kind outside the family")
	}
}

// TestEnvelopeScanZeroAlloc: receivers scan in a loop with one scratch
// Envelope, and most of what they scan is duplicates they will drop —
// so the scan of a realistic 8-event envelope into a warm Envelope
// allocates nothing (the Records backing array is recycled).
func TestEnvelopeScanZeroAlloc(t *testing.T) {
	buf, err := AppendEnvelope(nil, 1, benchBatch())
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := DecodeEnvelope(buf, &env); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := DecodeEnvelope(buf, &env); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("scan allocates %.2f times per envelope, want 0", avg)
	}
}

// TestRecordDecodeAllocBudget: materialising one novel record costs the
// event, its topic and its payload, plus the attrs slice and one string
// per attribute key and per string value — nothing else.
func TestRecordDecodeAllocBudget(t *testing.T) {
	for i, ev := range append(sampleEvents(), benchBatch()[0]) {
		raw, err := ev.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		budget := 3
		if len(ev.Attrs) > 0 {
			budget++
		}
		for _, a := range ev.Attrs {
			budget++
			if a.Val.Kind() == pubsub.KindString {
				budget++
			}
		}
		rec := EventRecord{ID: ev.ID, Raw: raw}
		avg := testing.AllocsPerRun(100, func() {
			if _, err := rec.Decode(nil); err != nil {
				t.Fatal(err)
			}
		})
		if avg > float64(budget) {
			t.Fatalf("event %d: Decode allocates %.0f times, budget %d", i, avg, budget)
		}
	}

	// Through a warm decoder the topic is shared and events and payloads
	// are carved from slabs: 64 novel 1 KB records without attributes
	// cost one event slab and one payload slab per slabEvents records.
	const n, pin = 64, 16
	recs := make([]EventRecord, n)
	for i := range recs {
		ev := &pubsub.Event{ID: pubsub.EventID{Publisher: 3, Seq: uint32(i)}, Topic: "news.eu", Payload: make([]byte, 1024)}
		raw, err := ev.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = EventRecord{ID: ev.ID, Raw: raw}
	}
	var dec Decoder
	avg := testing.AllocsPerRun(100, func() {
		for _, rec := range recs {
			got, err := rec.Decode(&dec)
			if err != nil {
				t.Fatal(err)
			}
			if got.Topic != "news.eu" || len(got.Payload) != 1024 {
				t.Fatalf("slab decode: topic %q, %d payload bytes", got.Topic, len(got.Payload))
			}
		}
	})
	t.Logf("allocs: decoding %d novel 1 KB events through a warm decoder costs %.0f, pin %d", n, avg, pin)
	if avg > pin {
		t.Fatalf("%d slab Decodes allocate %.0f times, want ≤ %d (two slabs per %d events)", n, avg, pin, slabEvents)
	}
}

// TestTopicTableIsBounded: a Decoder keeps at most maxTopics topics of at
// most maxTopicLen bytes, decodes every other topic all the same, and
// nothing it hands out aliases the bytes it was decoded from.
func TestTopicTableIsBounded(t *testing.T) {
	var topics Decoder
	for i := 0; i < maxTopics+10; i++ {
		topic := fmt.Sprintf("spray.%d", i)
		raw, err := (&pubsub.Event{Topic: topic}).AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := EventRecord{Raw: raw}.Decode(&topics)
		if err != nil || ev.Topic != topic {
			t.Fatalf("topic %q decoded as %q, error %v", topic, ev.Topic, err)
		}
		for j := range raw {
			raw[j] = 0
		}
		if ev.Topic != topic {
			t.Fatalf("topic %q changed with the receive buffer to %q", topic, ev.Topic)
		}
	}
	long := strings.Repeat("t", maxTopicLen+1)
	if topics.Topic([]byte(long)) != long || len(topics.topics) != maxTopics {
		t.Fatalf("table holds %d topics, want maxTopics = %d", len(topics.topics), maxTopics)
	}
	topics = Decoder{}
	if topics.Topic([]byte(long)); len(topics.topics) != 0 {
		t.Fatalf("a topic of %d bytes was kept", len(long))
	}
}

// TestDecodeRejectsHostileInput: a gauntlet of malformed buffers; every
// one must return an error (never panic, never succeed).
func TestDecodeRejectsHostileInput(t *testing.T) {
	good, err := AppendEnvelope(nil, 7, sampleEvents())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"short header": good[:HeaderSize-1],
		"bad magic":    append([]byte{0xde, 0xad}, good[2:]...),
		"bad version":  mutate(good, 2, 99),
		"unknown kind": mutate(good, 3, byte(NumKinds)),
		"kind flipped": mutate(good, 3, byte(KindOffer)), // event body is no entry grid
		"truncated":    good[:len(good)-3],
	}
	// A part its bit announces must be there, non-empty, and padding must
	// be zeros: anything else would be a second encoding of a message.
	join, err := Append(nil, 7, &Msg{Kind: KindJoin})
	if err != nil {
		t.Fatal(err)
	}
	announce := func(part byte, body ...byte) []byte {
		b := append(append([]byte(nil), join...), body...)
		b[3] |= part
		return b
	}
	cases["empty topic"] = announce(partTopic, 0, 0)
	cases["empty ads"] = announce(partAds, 0, 0)
	cases["empty fingerprint"] = announce(partFP, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	cases["empty padding"] = announce(partPad, 0, 0, 0, 0)
	cases["nonzero padding"] = announce(partPad, 0, 0, 0, 1, 7)
	cases["missing part"] = announce(partAds)
	walk, err := Append(nil, 7, &Msg{Kind: KindSubWalk, Parts: &Parts{Topic: "t"}})
	if err != nil {
		t.Fatal(err)
	}
	cases["records on a sub-walk"] = mutate(walk, 9, 1)
	// A lazy push names at least one id: with none it would be a second
	// encoding of KindEvents.
	cases["lazy push without ids"] = append(mutate(good, 3, byte(KindLazy)), 0, 0)
	if _, err := Append(nil, 7, &Msg{Kind: KindLazy, Events: sampleEvents()}); err == nil {
		t.Fatal("Append encoded a lazy push without ids")
	}
	// An eager push's hop precedes its records: a KindEvents body under
	// the eager kind byte is one byte short or misreads its first record.
	cases["eager push without its hop"] = mutate(good, 3, byte(KindEager))
	cases["eager push with only its hop"] = mutate(good[:HeaderSize+1], 3, byte(KindEager))
	// Truncation sweep: every prefix must fail cleanly — of a plain
	// envelope and of one carrying every optional part, since nothing but
	// the walk through the body says where it ends.
	all := sampleMsgs()
	parts, err := Append(nil, 7, &all[len(all)-2])
	if err != nil {
		t.Fatal(err)
	}
	for _, whole := range [][]byte{good, parts} {
		for i := 0; i < len(whole); i++ {
			cases["prefix"] = whole[:i]
			for name, data := range cases {
				var env Envelope
				if err := DecodeEnvelope(data, &env); err == nil {
					t.Fatalf("%s (prefix %d): decode accepted malformed input", name, i)
				}
			}
		}
	}
	// A version-1 envelope is refused as such.
	var env Envelope
	if err := DecodeEnvelope(mutate(good, 2, 1), &env); !errors.Is(err, ErrVersion) {
		t.Fatalf("version 1 envelope: %v, want ErrVersion", err)
	}
	// A count that cannot fit the body is rejected before allocation.
	huge := append([]byte(nil), good...)
	huge[8], huge[9] = 0xff, 0xff
	if err := DecodeEnvelope(huge, &env); err == nil {
		t.Fatal("hostile event count accepted")
	}
}

// TestScanRejectsWholeEnvelope: the scan materialises nothing, so it is
// the only gate — a defect in the *last* record, after any number of
// good ones, must still reject the envelope and leave no record behind
// for a caller to act on.
func TestScanRejectsWholeEnvelope(t *testing.T) {
	last := &pubsub.Event{
		ID:    pubsub.EventID{Publisher: 5, Seq: 5},
		Topic: "last",
		Attrs: []pubsub.Attr{
			{Key: "n", Val: pubsub.Num(1)},
			{Key: "b", Val: pubsub.Bool(true)},
		},
		Payload: []byte("tail"),
	}
	good, err := AppendEnvelope(nil, 7, append(sampleEvents(), last))
	if err != nil {
		t.Fatal(err)
	}
	lastAt := len(good) - last.WireSize()
	// Offsets inside the last record: id(8) topicLen(2) "last"(4)
	// attrCount(2) keyLen(2) "n"(1) kind(1) num(8) keyLen(2) "b"(1)
	// kind(1) bool(1) payloadLen(4) "tail"(4).
	numKindAt := lastAt + 8 + 2 + 4 + 2 + 2 + 1
	boolAt := numKindAt + 1 + 8 + 2 + 1 + 1
	plenAt := boolAt + 1
	cases := map[string][]byte{
		"bad kind byte":        mutate(good, numKindAt, 9),
		"bad bool byte":        mutate(good, boolAt, 2),
		"payload overruns":     mutate(good, plenAt+3, 5),
		"payload underruns":    mutate(good, plenAt+3, 3), // one trailing byte
		"under-count":          mutate(good, 9, good[9]-1),
		"over-count":           mutate(good, 9, good[9]+1),
		"ragged tail":          append(append([]byte(nil), good...), 0xab),
		"last record cut":      good[:len(good)-2],
		"attr count overflows": mutate(good, lastAt+8+2+4, 0xff),
	}
	for i := lastAt; i < len(good); i++ {
		cases[fmt.Sprintf("body cut at %d", i)] = good[:i]
	}
	var env Envelope
	for name, data := range cases {
		if err := DecodeEnvelope(good, &env); err != nil || len(env.Records) != len(sampleEvents())+1 {
			t.Fatalf("control envelope: %v, %d records", err, len(env.Records))
		}
		if err := DecodeEnvelope(data, &env); err == nil {
			t.Fatalf("%s: scan accepted a malformed envelope", name)
		}
		if len(env.Records) != 0 {
			t.Fatalf("%s: rejected envelope left %d records behind", name, len(env.Records))
		}
	}
}

func mutate(b []byte, at int, v byte) []byte {
	out := append([]byte(nil), b...)
	out[at] = v
	return out
}

// TestDecodedEventsDoNotAliasInput: receivers hand decoded events to
// their buffers while the input buffer may be shared with other
// receivers — records point into it, but nothing in an event that
// Decode returned may, slab-carved or not.
func TestDecodedEventsDoNotAliasInput(t *testing.T) {
	src := &pubsub.Event{
		ID: pubsub.EventID{Publisher: 1, Seq: 1}, Topic: "t",
		Attrs:   []pubsub.Attr{{Key: "k", Val: pubsub.String("v")}},
		Payload: []byte("payload"),
	}
	buf, err := AppendEnvelope(nil, 1, []*pubsub.Event{src})
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := DecodeEnvelope(buf, &env); err != nil {
		t.Fatal(err)
	}
	got := decodeAll(t, &env, &Decoder{})[0]
	for i := range buf {
		buf[i] = 0xff // scribble over the wire bytes
	}
	if got.Topic != "t" || !bytes.Equal(got.Payload, []byte("payload")) {
		t.Fatal("decoded event aliases the input buffer")
	}
	if got.Attrs[0].Key != "k" || got.Attrs[0].Val.Str() != "v" {
		t.Fatal("decoded attribute aliases the input buffer")
	}
}

// TestSlabCarvesAreIndependent: events carved from one Decoder's slabs
// each own their memory. More than three slabs' worth of records, with
// payloads of assorted sizes (none, slab-shared, one above
// maxSlabPayload), are decoded before any is touched. Then the source
// buffers are zeroed and, event by event, each payload is appended to and
// every byte of it overwritten: every other event must still equal its
// source.
func TestSlabCarvesAreIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var dec Decoder
	n := 3*slabEvents + 3
	want := make([]*pubsub.Event, n)
	got := make([]*pubsub.Event, n)
	raws := make([][]byte, n)
	for i := range want {
		size := 1 + rng.Intn(2048)
		switch i % 9 {
		case 4:
			size = 0
		case 7:
			size = maxSlabPayload + 1
		}
		want[i] = &pubsub.Event{ID: pubsub.EventID{Publisher: 1, Seq: uint32(i)}, Topic: "t", Payload: make([]byte, size)}
		rng.Read(want[i].Payload)
		raw, err := want[i].AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[i], err = (EventRecord{ID: want[i].ID, Raw: raw}).Decode(&dec); err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
	}
	for _, raw := range raws {
		clear(raw)
	}
	for i, ev := range got {
		grown := append(ev.Payload, make([]byte, 16)...)
		for k := range grown {
			grown[k] = 0xEE
		}
		ev.Payload = grown
		want[i].Payload = bytes.Clone(grown)
		for j := range got {
			if got[j].ID != want[j].ID || !bytes.Equal(got[j].Payload, want[j].Payload) {
				t.Fatalf("writing event %d's payload changed event %d", i, j)
			}
		}
	}
}

// TestEncodeLimits: unencodable events (oversized fields, invalid
// values) are refused rather than producing an undecodable envelope, by
// both entry points of the one record encoder.
func TestEncodeLimits(t *testing.T) {
	long := strings.Repeat("x", math.MaxUint16+1)
	for name, ev := range map[string]*pubsub.Event{
		"oversized topic":         {Topic: long},
		"invalid (zero) value":    {Attrs: []pubsub.Attr{{Key: "z"}}},
		"oversized attribute key": {Attrs: []pubsub.Attr{{Key: long, Val: pubsub.Bool(true)}}},
		"oversized string value":  {Attrs: []pubsub.Attr{{Key: "k", Val: pubsub.String(long)}}},
	} {
		if _, err := AppendEnvelope(nil, 1, []*pubsub.Event{ev}); err == nil {
			t.Fatalf("%s: AppendEnvelope accepted it", name)
		}
		if _, err := ev.MarshalBinary(); err == nil {
			t.Fatalf("%s: MarshalBinary accepted it", name)
		}
	}
}

// TestMembershipRoundTrip: decode→encode is the identity for every
// membership kind, and the encoded size is the header plus EntryWireSize
// per entry — shuffle bytes charged to the fairness ledger are exactly
// the bytes on the wire.
func TestMembershipRoundTrip(t *testing.T) {
	entries := []ViewEntry{
		{ID: 0, Age: 0},
		{ID: 7, Age: 1},
		{ID: math.MaxUint32, Age: math.MaxUint16},
	}
	for _, kind := range []Kind{KindOffer, KindReply, KindJoin, KindLeave} {
		for n := 0; n <= len(entries); n++ {
			buf, err := Append(nil, 9, &Msg{Kind: kind, Entries: entries[:n]})
			if err != nil {
				t.Fatalf("kind %d n=%d: %v", kind, n, err)
			}
			if len(buf) != HeaderSize+n*EntryWireSize {
				t.Fatalf("kind %d n=%d: encoded %d bytes, want %d", kind, n, len(buf), HeaderSize+n*EntryWireSize)
			}
			var env Envelope
			if err := DecodeEnvelope(buf, &env); err != nil {
				t.Fatalf("kind %d n=%d: decode: %v", kind, n, err)
			}
			if env.Kind != kind || env.Sender != 9 {
				t.Fatalf("kind %d n=%d: header mangled: %+v", kind, n, env)
			}
			if len(env.Records) != 0 || len(env.Entries) != n {
				t.Fatalf("kind %d n=%d: decoded %d records, %d entries",
					kind, n, len(env.Records), len(env.Entries))
			}
			for i := range entries[:n] {
				if env.Entries[i] != entries[i] {
					t.Fatalf("kind %d entry %d: got %+v, want %+v", kind, i, env.Entries[i], entries[i])
				}
			}
			back, err := Append(nil, env.Sender, &Msg{Kind: env.Kind, Entries: env.Entries})
			if err != nil {
				t.Fatalf("kind %d n=%d: re-encode: %v", kind, n, err)
			}
			if !bytes.Equal(back, buf) {
				t.Fatalf("kind %d n=%d: decode→encode is not the identity", kind, n)
			}
		}
	}
}

// TestMembershipRejectsMalformed: hostile membership envelopes — a body
// that is not a whole number of entry cells, a count disagreeing with
// the body, and a kind outside the family at the encoder — all fail
// cleanly.
func TestMembershipRejectsMalformed(t *testing.T) {
	good, err := Append(nil, 3, &Msg{Kind: KindOffer, Entries: []ViewEntry{{ID: 1, Age: 2}, {ID: 4, Age: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(good); i++ {
		var env Envelope
		if err := DecodeEnvelope(good[:i], &env); err == nil {
			t.Fatalf("prefix of %d bytes accepted", i)
		}
	}
	undercount := mutate(good, 9, good[9]-1) // count 1, body still 2 cells
	var env Envelope
	if err := DecodeEnvelope(undercount, &env); err == nil {
		t.Fatal("count/body mismatch accepted")
	}
	ragged := append(append([]byte(nil), good...), 0xab) // body not a multiple of EntryWireSize
	if err := DecodeEnvelope(ragged, &env); err == nil {
		t.Fatal("ragged entry grid accepted")
	}
	if _, err := Append(nil, 1, &Msg{Kind: NumKinds}); err == nil {
		t.Fatal("Append accepted an unknown kind")
	}
}

// TestMembershipDecodeReusesEntriesSlice: like the Records slice, the
// Entries backing array is recycled across decodes.
func TestMembershipDecodeReusesEntriesSlice(t *testing.T) {
	buf, err := Append(nil, 1, &Msg{Kind: KindReply, Entries: []ViewEntry{{ID: 1}, {ID: 2}, {ID: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := DecodeEnvelope(buf, &env); err != nil {
		t.Fatal(err)
	}
	first := cap(env.Entries)
	for i := 0; i < 8; i++ {
		if err := DecodeEnvelope(buf, &env); err != nil {
			t.Fatal(err)
		}
	}
	if cap(env.Entries) != first {
		t.Fatalf("Entries slice reallocated: cap %d -> %d", first, cap(env.Entries))
	}
}

// TestKindSwitchClearsPayloads: a decoder whose scratch Envelope last
// held events must not leak them into a membership decode, and vice
// versa.
func TestKindSwitchClearsPayloads(t *testing.T) {
	evBuf, err := AppendEnvelope(nil, 1, sampleEvents())
	if err != nil {
		t.Fatal(err)
	}
	memBuf, err := Append(nil, 2, &Msg{Kind: KindJoin, Entries: []ViewEntry{{ID: 5, Age: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := DecodeEnvelope(evBuf, &env); err != nil {
		t.Fatal(err)
	}
	if err := DecodeEnvelope(memBuf, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Records) != 0 || len(env.Entries) != 1 || env.Kind != KindJoin {
		t.Fatalf("stale records survived a kind switch: %+v", env)
	}
	if err := DecodeEnvelope(evBuf, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Entries) != 0 || len(env.Records) != len(sampleEvents()) || env.Kind != KindEvents {
		t.Fatalf("stale entries survived a kind switch: %+v", env)
	}
}

// TestRandomisedRoundTrip: property check over a few hundred randomly
// generated envelopes, decoded through one receiver's Decoder.
func TestRandomisedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var dec Decoder
	letters := "abcdefghij.2"
	randStr := func(max int) string {
		n := rng.Intn(max + 1)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(letters[rng.Intn(len(letters))])
		}
		return sb.String()
	}
	for trial := 0; trial < 300; trial++ {
		batch := make([]*pubsub.Event, rng.Intn(6))
		for i := range batch {
			ev := &pubsub.Event{
				ID:    pubsub.EventID{Publisher: rng.Uint32(), Seq: rng.Uint32()},
				Topic: randStr(20),
			}
			for a := rng.Intn(5); a > 0; a-- {
				var v pubsub.Value
				switch rng.Intn(3) {
				case 0:
					v = pubsub.String(randStr(12))
				case 1:
					v = pubsub.Num(rng.NormFloat64())
				default:
					v = pubsub.Bool(rng.Intn(2) == 1)
				}
				ev.Attrs = append(ev.Attrs, pubsub.Attr{Key: randStr(8), Val: v})
			}
			if n := rng.Intn(100); n > 0 {
				ev.Payload = make([]byte, n)
				rng.Read(ev.Payload)
			}
			batch[i] = ev
		}
		sender := rng.Uint32()
		buf, err := AppendEnvelope(nil, sender, batch)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var env Envelope
		if err := DecodeEnvelope(buf, &env); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if env.Sender != sender || len(env.Records) != len(batch) {
			t.Fatalf("trial %d: envelope header mangled", trial)
		}
		got := decodeAll(t, &env, &dec)
		for i := range batch {
			eventsEqual(t, got[i], batch[i])
		}
	}
}
