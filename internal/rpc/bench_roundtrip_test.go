package rpc

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/wire"
)

// BenchmarkRPCRoundtrip measures steady-state request/response throughput
// the way the HVAC data path uses the transport: many client goroutines,
// each with its own connection to one server, issuing 4 KiB reads. Run
// with -cpu 8 to see core scaling.
func BenchmarkRPCRoundtrip(b *testing.B) {
	payload := make([]byte, 4096)
	net := NewInprocNetwork()
	lis, err := net.Listen("bench-rt")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(HandlerFunc(func(op uint16, req []byte) (uint16, []byte) {
		return StatusOK, payload
	}))
	go srv.Serve(lis)
	defer srv.Close()

	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		conn, err := net.Dial("bench-rt")
		if err != nil {
			b.Error(err)
			return
		}
		cli := NewClient(conn)
		defer cli.Close()
		ctx := context.Background()
		req := []byte("cosmoUniverse/train/univ_000042.tfrecord")
		for pb.Next() {
			if _, _, err := cli.Call(ctx, 1, req); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkRPCFramePath isolates the wire-level cost of one roundtrip —
// encode request, server-side decode, encode response, client-side
// decode — without the transport, so allocs/op shows exactly what the
// framing layer charges per steady-state RPC.
func BenchmarkRPCFramePath(b *testing.B) {
	reqPayload := []byte("cosmoUniverse/train/univ_000042.tfrecord")
	respPayload := make([]byte, 4096)
	var buf bytes.Buffer
	buf.Grow(8192)
	// One frame reader per side, as on a connection; each frame is read
	// whole before the buffer is reset, so neither holds bytes across.
	srvFR, cliFR := wire.NewFrameReader(&buf, 0), wire.NewFrameReader(&buf, 0)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		req := wire.Frame{Type: wire.TypeRequest, ID: uint64(i), Op: 1, Payload: reqPayload}
		if err := wire.WriteFrame(&buf, &req); err != nil {
			b.Fatal(err)
		}
		// Server side: pooled receive, response may alias the request.
		got, lease, err := srvFR.ReadFramePooled()
		if err != nil {
			b.Fatal(err)
		}
		resp := wire.Frame{Type: wire.TypeResponse, ID: got.ID, Op: got.Op, Payload: respPayload}
		buf.Reset()
		if err := wire.WriteFrame(&buf, &resp); err != nil {
			b.Fatal(err)
		}
		lease.Release()
		// Client side: the application owns the response payload, so this
		// side's read allocates exactly once (the payload itself).
		if _, err := cliFR.ReadFrame(); err != nil {
			b.Fatal(err)
		}
	}
}
