package hvac

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// FuzzPutBatchReq hardens the batch decoder: arbitrary bytes must yield
// ErrDecode or a batch that re-encodes to an equivalent payload — never
// a panic or an over-allocation driven by a corrupt count field. The
// decode runs on a payload delivered through the pooled frame path,
// exactly as the server sees it.
func FuzzPutBatchReq(f *testing.F) {
	// Seeds: zero-entry, one-entry, multi-entry, and truncations.
	empty := (&PutBatchReq{}).Marshal()
	f.Add(empty)
	one := (&PutBatchReq{Entries: []PutEntry{{Path: "a/b", Data: []byte("data")}}}).Marshal()
	f.Add(one)
	multi := (&PutBatchReq{Entries: []PutEntry{
		{Path: "x", Data: nil},
		{Path: "", Data: []byte{0}},
		{Path: "long/path/name", Data: bytes.Repeat([]byte{7}, 100)},
	}}).Marshal()
	f.Add(multi)
	f.Add(multi[:len(multi)-1]) // truncated tail
	f.Add(multi[:5])            // truncated mid-count
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Deliver the payload through the pooled frame path: the decoded
		// entries alias the lease, mirroring the server's buffer lifetime.
		var framed bytes.Buffer
		if err := wire.WriteFrame(&framed, &wire.Frame{Type: wire.TypeRequest, ID: 1, Op: OpPutBatch, Payload: data}); err != nil {
			t.Fatalf("frame: %v", err)
		}
		fr, lease, err := wire.NewFrameReader(&framed, 1<<22).ReadFramePooled()
		if err != nil {
			t.Fatalf("pooled read of a valid frame: %v", err)
		}
		defer lease.Release()

		var req PutBatchReq
		if err := req.Unmarshal(fr.Payload); err != nil {
			// Malformed input must also be rejected by the plain path.
			var again PutBatchReq
			if err2 := again.Unmarshal(data); err2 == nil {
				t.Fatal("pooled and plain decode disagree on malformed input")
			}
			return
		}
		// A valid decode must round-trip losslessly.
		re := (&PutBatchReq{Entries: req.Entries}).Marshal()
		var back PutBatchReq
		if err := back.Unmarshal(re); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(back.Entries) != len(req.Entries) {
			t.Fatalf("round trip entry count %d, want %d", len(back.Entries), len(req.Entries))
		}
		for i := range req.Entries {
			if back.Entries[i].Path != req.Entries[i].Path || !bytes.Equal(back.Entries[i].Data, req.Entries[i].Data) {
				t.Fatalf("entry %d mismatch", i)
			}
		}
		// Any strict prefix of a valid encoding must be rejected (except
		// a prefix that is itself a complete shorter encoding — the
		// decoder's trailing-bytes check makes that impossible here
		// because the count pins the entry total).
		if len(re) > 0 {
			var trunc PutBatchReq
			if err := trunc.Unmarshal(re[:len(re)-1]); err == nil && len(req.Entries) > 0 {
				t.Fatal("truncated encoding decoded successfully")
			}
		}
	})
}

// FuzzPutBatchResp hardens the ack decoder the client runs on server
// responses.
func FuzzPutBatchResp(f *testing.F) {
	f.Add((&PutBatchResp{}).Marshal())
	f.Add((&PutBatchResp{Statuses: []uint16{0, 1, 0xFFFE}}).Marshal())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var resp PutBatchResp
		if err := resp.Unmarshal(data); err != nil {
			return
		}
		re := (&PutBatchResp{Statuses: resp.Statuses}).Marshal()
		var back PutBatchResp
		if err := back.Unmarshal(re); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(back.Statuses) != len(resp.Statuses) {
			t.Fatalf("round trip count %d, want %d", len(back.Statuses), len(resp.Statuses))
		}
		for i := range resp.Statuses {
			if back.Statuses[i] != resp.Statuses[i] {
				t.Fatalf("status %d mismatch", i)
			}
		}
	})
}

// TestPutBatchZeroEntry pins the zero-entry batch down as a valid,
// stable encoding (the explicit-flush-of-empty-buffer frame).
func TestPutBatchZeroEntry(t *testing.T) {
	b := (&PutBatchReq{}).Marshal()
	var req PutBatchReq
	if err := req.Unmarshal(b); err != nil {
		t.Fatalf("zero-entry decode: %v", err)
	}
	if len(req.Entries) != 0 {
		t.Fatalf("zero-entry decoded %d entries", len(req.Entries))
	}
	if len(b) != 4 {
		t.Fatalf("zero-entry encoding is %d bytes, want 4", len(b))
	}
}

// TestPutBatchCountOverflowRejected pins the count-field sanity bound:
// a count promising more entries than the payload could hold must be
// rejected before any allocation sized by it.
func TestPutBatchCountOverflowRejected(t *testing.T) {
	e := wire.NewBuffer(8)
	e.U32(0xFFFFFFFF)
	var req PutBatchReq
	if err := req.Unmarshal(e.Bytes()); err == nil {
		t.Fatal("absurd count accepted")
	}
}

// FuzzRecacheReq hardens the hint decoder: arbitrary bytes must yield
// ErrDecode or a request that round-trips, never a panic or an
// allocation sized by a corrupt count — and the decoded paths must not
// alias the pooled frame buffer, because the server queues them past
// the RPC's lifetime.
func FuzzRecacheReq(f *testing.F) {
	f.Add((&RecacheReq{}).Marshal())
	f.Add((&RecacheReq{Failed: "node-0003"}).Marshal())
	multi := (&RecacheReq{Failed: "node-0003", Paths: []string{"a/b", "", "long/path/name"}}).Marshal()
	f.Add(multi)
	f.Add(multi[:len(multi)-1]) // truncated tail
	f.Add(multi[:15])           // truncated mid-count
	f.Add(append(append([]byte(nil), multi...), 0))
	f.Add([]byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var framed bytes.Buffer
		if err := wire.WriteFrame(&framed, &wire.Frame{Type: wire.TypeRequest, ID: 1, Op: OpRecache, Payload: data}); err != nil {
			t.Fatalf("frame: %v", err)
		}
		fr, lease, err := wire.NewFrameReader(&framed, 1<<22).ReadFramePooled()
		if err != nil {
			t.Fatalf("pooled read of a valid frame: %v", err)
		}
		var req RecacheReq
		err = req.Unmarshal(fr.Payload)
		// Scribble over the frame, then recycle it: a path aliasing the
		// buffer would change under us.
		for i := range fr.Payload {
			fr.Payload[i] = 0xA5
		}
		lease.Release()
		var plain RecacheReq
		if (plain.Unmarshal(data) == nil) != (err == nil) {
			t.Fatal("pooled and plain decode disagree")
		}
		if err != nil {
			return
		}
		if req.Failed != plain.Failed || len(req.Paths) != len(plain.Paths) {
			t.Fatalf("decoded request changed after its buffer was recycled")
		}
		for i := range req.Paths {
			if req.Paths[i] != plain.Paths[i] {
				t.Fatalf("path %d aliases the recycled frame buffer", i)
			}
		}
		re := req.Marshal()
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encoding differs from the accepted input: %x vs %x", re, data)
		}
		if len(req.Paths) > 0 {
			var trunc RecacheReq
			if trunc.Unmarshal(re[:len(re)-1]) == nil {
				t.Fatal("truncated encoding decoded successfully")
			}
		}
	})
}
