package wire

import (
	"bytes"
	"testing"
)

func TestTraceExtRoundTrip(t *testing.T) {
	x := TraceExt{TraceID: 0xDEADBEEF01234567, SpanID: 0xCAFEBABE89ABCDEF}
	e := NewBuffer(0)
	e.U64(42) // a message field ahead of the extension
	e.AppendTraceExt(x)
	if got := len(e.Bytes()); got != 8+TraceExtSize {
		t.Fatalf("encoded size = %d, want %d", got, 8+TraceExtSize)
	}

	d := NewReader(e.Bytes())
	if v := d.U64(); v != 42 {
		t.Fatalf("message field = %d, want 42", v)
	}
	got, ok := d.DecodeTraceExt()
	if !ok || got != x {
		t.Fatalf("DecodeTraceExt = (%+v, %v), want (%+v, true)", got, ok, x)
	}
	if d.Err() != nil {
		t.Fatalf("decode error: %v", d.Err())
	}
	if !got.Valid() {
		t.Fatal("round-tripped extension reports invalid")
	}
}

func TestTraceExtAbsent(t *testing.T) {
	d := NewReader(nil)
	x, ok := d.DecodeTraceExt()
	if ok || x.Valid() || d.Err() != nil {
		t.Fatalf("absent ext = (%+v, %v, err %v), want zero/false/nil", x, ok, d.Err())
	}
}

func TestTraceExtUnknownVersionSkipped(t *testing.T) {
	e := NewBuffer(0)
	e.U8(99).U8(3).U8(1).U8(2).U8(3) // version 99, 3-byte body
	d := NewReader(e.Bytes())
	x, ok := d.DecodeTraceExt()
	if ok || x.Valid() {
		t.Fatalf("unknown version decoded as %+v", x)
	}
	if d.Err() != nil {
		t.Fatalf("unknown version must be skipped, got error %v", d.Err())
	}
}

func TestTraceExtCorruptRejected(t *testing.T) {
	valid := NewBuffer(0).AppendTraceExt(TraceExt{TraceID: 1, SpanID: 2}).Bytes()
	cases := map[string][]byte{
		"truncated body":        valid[:len(valid)-3],
		"length past end":       {TraceExtVersion, 200, 0, 0},
		"short v1 body":         {TraceExtVersion, 4, 1, 2, 3, 4},
		"trailing bytes":        append(append([]byte{}, valid...), 0xFF),
		"bare version byte":     {TraceExtVersion},
		"unknown ver truncated": {99, 10, 1, 2},
	}
	for name, raw := range cases {
		d := NewReader(raw)
		if _, ok := d.DecodeTraceExt(); ok {
			t.Errorf("%s: decoded successfully", name)
		}
		if d.Err() == nil {
			t.Errorf("%s: no sticky error", name)
		}
	}
}

func TestTraceExtZeroIDMeansAbsent(t *testing.T) {
	if (TraceExt{}).Valid() {
		t.Fatal("zero extension reports valid")
	}
	if !(TraceExt{TraceID: 1}).Valid() {
		t.Fatal("non-zero trace id reports invalid")
	}
}

// FuzzTraceExt hardens the optional-extension decoder: arbitrary
// trailers must decode, skip, or set the sticky error — never panic,
// and never disagree between the plain and pooled frame-delivery
// paths. This is the path every OpRead/OpPutBatch request payload
// funnels through when tracing is on.
func FuzzTraceExt(f *testing.F) {
	valid := NewBuffer(0).AppendTraceExt(TraceExt{TraceID: 7, SpanID: 9}).Bytes()
	f.Add([]byte{})
	f.Add(append([]byte{}, valid...))
	f.Add(valid[:5])
	f.Add([]byte{99, 4, 1, 2, 3, 4})               // unknown version
	f.Add([]byte{TraceExtVersion, 255, 0})         // length past end
	f.Add(append(append([]byte{}, valid...), 0x1)) // trailing byte
	f.Add(bytes.Repeat([]byte{TraceExtVersion}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewReader(data)
		x, ok := d.DecodeTraceExt()
		if ok {
			if d.Err() != nil {
				t.Fatalf("ok decode with sticky error %v", d.Err())
			}
			if d.Remaining() != 0 {
				t.Fatalf("ok decode left %d bytes", d.Remaining())
			}
			// A decoded extension must re-encode to a decodable form
			// carrying the same ids (the encoder emits the v1 body,
			// so oversized-but-tolerated bodies normalize).
			re := NewBuffer(0).AppendTraceExt(x).Bytes()
			rd := NewReader(re)
			y, rok := rd.DecodeTraceExt()
			if !rok || y != x {
				t.Fatalf("re-decode = (%+v, %v), want (%+v, true)", y, rok, x)
			}
		}

		// The same payload delivered through the pooled frame path must
		// reach an identical decode decision: frame transport is opaque
		// to the extension.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &Frame{Type: TypeRequest, ID: 1, Op: 2, Payload: data}); err != nil {
			return // payload too large for a frame: nothing to compare
		}
		pfr, lease, perr := NewFrameReader(&buf, 1<<21).ReadFramePooled()
		if perr != nil {
			t.Fatalf("pooled frame decode of valid frame failed: %v", perr)
		}
		pd := NewReader(pfr.Payload)
		px, pok := pd.DecodeTraceExt()
		if pok != ok || px != x || (pd.Err() == nil) != (d.Err() == nil) {
			t.Fatalf("pooled path disagrees: (%+v, %v, err %v) vs (%+v, %v, err %v)",
				px, pok, pd.Err(), x, ok, d.Err())
		}
		lease.Release()
	})
}
