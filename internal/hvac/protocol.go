// Package hvac implements the distributed node-local cache the paper
// extends: an HVAC-style client/server pair (§II-B).
//
// Every compute node runs a Server daemon owning that node's NVMe cache.
// The Client library sits inside the training process (standing in for
// the LD_PRELOAD interception layer), hashes each file path to an owner
// node, and issues an RPC read. The owner serves from NVMe on a hit; on
// a miss it reads the PFS, serves the data, and hands the object to a
// background data mover that caches it on NVMe for subsequent epochs.
//
// Fault-tolerance policy (what happens when the owner does not answer)
// is pluggable — see package ftcache for the three strategies under test.
package hvac

import (
	"errors"

	"repro/internal/wire"
)

// RPC opcodes.
const (
	// OpPing checks liveness.
	OpPing uint16 = iota + 1
	// OpRead reads [offset, offset+length) of a file; length < 0 means
	// the whole file.
	OpRead
	// OpStat returns file size and cache residency.
	OpStat
	// OpStats returns server counters.
	OpStats
	// OpInvalidate drops a path from the server's NVMe cache.
	OpInvalidate
	_ // 6 is retired: it was a single-object put, now a one-entry OpPutBatch
	// OpPutBatch is the one write op: it pushes objects into the server's
	// NVMe cache, one (a Push) or many (an ingest batch) per frame. The
	// payload is a length-prefixed entry list; the response carries one
	// status per entry, so a single bad object never fails its batch-mates.
	OpPutBatch
	// OpRecache hints a server the paths it inherited from a failed node
	// so it can prefetch them from the PFS ahead of demand. Best-effort
	// in both directions: the server may drop what its queue cannot hold
	// (those paths fill on first miss), and the client never treats the
	// call's outcome as failure-detector evidence.
	OpRecache
)

// Application statuses (beyond rpc.StatusOK).
const (
	// StatusNotFound: the path exists on neither NVMe nor PFS.
	StatusNotFound uint16 = 1
	// StatusError: an internal server failure.
	StatusError uint16 = 2
	// StatusOverloaded: the server's admission controller shed the
	// request. The server is alive and answering — clients must treat
	// this as a redirect signal (try a replica or the PFS), never as
	// failure-detector evidence. Placed at the top of the status space,
	// just below rpc.StatusPanic (0xFFFF), to stay clear of future
	// application statuses.
	StatusOverloaded uint16 = 0xFFFE
)

// Data sources reported in read responses.
const (
	// SourceNVMe: served from the node-local cache.
	SourceNVMe uint8 = 1
	// SourcePFS: cache miss, served from the parallel file system.
	SourcePFS uint8 = 2
	// SourceRAM: served zero-copy from the in-memory hot-object tier.
	SourceRAM uint8 = 3
)

// ErrDecode reports a malformed payload.
var ErrDecode = errors.New("hvac: malformed message")

// ReadReq asks for a byte range of a file.
type ReadReq struct {
	Path   string
	Offset int64
	Length int64 // < 0 → to EOF
	// Trace is the optional trace context (zero = untraced). It rides
	// as a wire.TraceExt trailer after the request fields, so untraced
	// requests are byte-identical to the pre-trace encoding.
	Trace wire.TraceExt
}

// Marshal encodes the request.
func (r *ReadReq) Marshal() []byte {
	e := wire.NewBuffer(len(r.Path) + 24 + wire.TraceExtSize).
		String(r.Path).I64(r.Offset).I64(r.Length)
	if r.Trace.Valid() {
		e.AppendTraceExt(r.Trace)
	}
	return e.Bytes()
}

// Unmarshal decodes the request.
func (r *ReadReq) Unmarshal(b []byte) error {
	d := wire.NewReader(b)
	r.Path = d.String()
	r.Offset = d.I64()
	r.Length = d.I64()
	r.Trace, _ = d.DecodeTraceExt()
	if d.Err() != nil {
		return ErrDecode
	}
	return nil
}

// ReadResp carries file data and its serving tier.
type ReadResp struct {
	Source uint8
	// FileSize is the full size of the file (callers may have asked for
	// a sub-range).
	FileSize int64
	Data     []byte
}

// Marshal encodes the response.
func (r *ReadResp) Marshal() []byte {
	return append(r.marshalHead(), r.Data...)
}

// marshalHead encodes everything of the response but the bytes of Data
// itself (a Bytes32 length prefix without its body). The server sends
// head and Data separately so the stored object is never copied.
func (r *ReadResp) marshalHead() []byte {
	return wire.NewBuffer(16).
		U8(r.Source).I64(r.FileSize).U32(uint32(len(r.Data))).Bytes()
}

// Unmarshal decodes the response. Data aliases b.
func (r *ReadResp) Unmarshal(b []byte) error {
	d := wire.NewReader(b)
	r.Source = d.U8()
	r.FileSize = d.I64()
	r.Data = d.Bytes32()
	if d.Err() != nil {
		return ErrDecode
	}
	return nil
}

// StatReq asks for metadata of a path.
type StatReq struct{ Path string }

// Marshal encodes the request.
func (r *StatReq) Marshal() []byte {
	return wire.NewBuffer(len(r.Path) + 4).String(r.Path).Bytes()
}

// Unmarshal decodes the request.
func (r *StatReq) Unmarshal(b []byte) error {
	d := wire.NewReader(b)
	r.Path = d.String()
	if d.Err() != nil {
		return ErrDecode
	}
	return nil
}

// StatResp reports size and cache residency.
type StatResp struct {
	Size   int64
	Cached bool
}

// Marshal encodes the response.
func (r *StatResp) Marshal() []byte {
	return wire.NewBuffer(9).I64(r.Size).Bool(r.Cached).Bytes()
}

// Unmarshal decodes the response.
func (r *StatResp) Unmarshal(b []byte) error {
	d := wire.NewReader(b)
	r.Size = d.I64()
	r.Cached = d.Bool()
	if d.Err() != nil {
		return ErrDecode
	}
	return nil
}

// PutEntry is one object of a batched put.
type PutEntry struct {
	Path string
	Data []byte
}

// minPutEntryWire is the smallest possible encoded PutEntry (two empty
// length-prefixed fields) — the bound the decoder uses to reject a
// count field larger than the payload could possibly hold before
// allocating anything.
const minPutEntryWire = 8

// PutBatchReq pushes a batch of objects into a server's cache in one
// frame. Encoding: u32 entry count, then per entry a length-prefixed
// path and length-prefixed data. A zero-entry batch is valid (an
// explicit flush of an empty buffer acknowledges as an empty response).
type PutBatchReq struct {
	Entries []PutEntry
	// Trace is the optional trace context (zero = untraced): the flush
	// generation that sealed an ingest batch, or a Push's caller.
	Trace wire.TraceExt
}

// Marshal encodes the request in one shot. The ingest worker builds the
// same encoding incrementally: EncodePutEntry per object, with the
// count, known only at seal, patched into its placeholder.
func (r *PutBatchReq) Marshal() []byte {
	size := 4 + wire.TraceExtSize
	for i := range r.Entries {
		size += minPutEntryWire + len(r.Entries[i].Path) + len(r.Entries[i].Data)
	}
	e := wire.NewBuffer(size).U32(uint32(len(r.Entries)))
	for i := range r.Entries {
		EncodePutEntry(e, r.Entries[i].Path, r.Entries[i].Data)
	}
	if r.Trace.Valid() {
		e.AppendTraceExt(r.Trace)
	}
	return e.Bytes()
}

// EncodePutEntry appends one batch entry (path + data) onto e.
func EncodePutEntry(e *wire.Buffer, path string, data []byte) {
	e.String(path)
	e.Bytes32(data)
}

// Unmarshal decodes the request. Entry data aliases b.
func (r *PutBatchReq) Unmarshal(b []byte) error {
	d := wire.NewReader(b)
	n := d.U32()
	if d.Err() != nil || int64(n)*minPutEntryWire > int64(d.Remaining()) {
		return ErrDecode
	}
	r.Entries = make([]PutEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		p := d.String()
		data := d.Bytes32()
		if d.Err() != nil {
			return ErrDecode
		}
		r.Entries = append(r.Entries, PutEntry{Path: p, Data: data})
	}
	// Anything after the entries must be a well-formed trace extension;
	// other trailing bytes mean a corrupt count — reject rather than
	// silently dropping caller data.
	r.Trace, _ = d.DecodeTraceExt()
	if d.Err() != nil {
		return ErrDecode
	}
	return nil
}

// PutBatchResp acknowledges a batch with one status per entry, indexed
// like the request. rpc.StatusOK means the object is readable from this
// server's cache tier the moment the response is on the wire — the
// ack-visibility guarantee Flush builds on.
type PutBatchResp struct {
	Statuses []uint16
}

// Marshal encodes the response.
func (r *PutBatchResp) Marshal() []byte {
	e := wire.NewBuffer(4 + 2*len(r.Statuses))
	e.U32(uint32(len(r.Statuses)))
	for _, s := range r.Statuses {
		e.U16(s)
	}
	return e.Bytes()
}

// Unmarshal decodes the response.
func (r *PutBatchResp) Unmarshal(b []byte) error {
	d := wire.NewReader(b)
	n := d.U32()
	if d.Err() != nil || int64(n)*2 > int64(d.Remaining()) {
		return ErrDecode
	}
	r.Statuses = make([]uint16, n)
	for i := range r.Statuses {
		r.Statuses[i] = d.U16()
	}
	if d.Err() != nil || d.Remaining() != 0 {
		return ErrDecode
	}
	return nil
}

// minPathWire is the smallest possible encoded path (an empty
// length-prefixed string).
const minPathWire = 4

// RecacheReq is one chunk of a recache plan: paths the receiving server
// now owns because Failed left the ring.
type RecacheReq struct {
	Failed string
	Paths  []string
}

// Marshal encodes the request.
func (r *RecacheReq) Marshal() []byte {
	size := minPathWire + len(r.Failed) + 4 // failed node, path count
	for _, p := range r.Paths {
		size += minPathWire + len(p)
	}
	e := wire.NewBuffer(size).String(r.Failed).U32(uint32(len(r.Paths)))
	for _, p := range r.Paths {
		e.String(p)
	}
	return e.Bytes()
}

// Unmarshal decodes the request. The paths are copied off b, so the
// server may keep them after the RPC buffer is recycled.
func (r *RecacheReq) Unmarshal(b []byte) error {
	d := wire.NewReader(b)
	r.Failed = d.String()
	n := d.U32()
	if d.Err() != nil || int64(n)*minPathWire > int64(d.Remaining()) {
		return ErrDecode
	}
	r.Paths = make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		r.Paths = append(r.Paths, d.String())
	}
	if d.Err() != nil || d.Remaining() != 0 {
		return ErrDecode
	}
	return nil
}

// StatsResp reports server-side counters for observability and tests.
type StatsResp struct {
	NVMeObjects   int64
	NVMeBytes     int64
	NVMeHits      int64
	NVMeMisses    int64
	PFSFallbacks  int64 // reads served from PFS by this server
	MoverEnqueued int64
	MoverDropped  int64
}

// Marshal encodes the response.
func (r *StatsResp) Marshal() []byte {
	return wire.NewBuffer(56).
		I64(r.NVMeObjects).I64(r.NVMeBytes).I64(r.NVMeHits).I64(r.NVMeMisses).
		I64(r.PFSFallbacks).I64(r.MoverEnqueued).I64(r.MoverDropped).Bytes()
}

// Unmarshal decodes the response.
func (r *StatsResp) Unmarshal(b []byte) error {
	d := wire.NewReader(b)
	r.NVMeObjects = d.I64()
	r.NVMeBytes = d.I64()
	r.NVMeHits = d.I64()
	r.NVMeMisses = d.I64()
	r.PFSFallbacks = d.I64()
	r.MoverEnqueued = d.I64()
	r.MoverDropped = d.I64()
	if d.Err() != nil {
		return ErrDecode
	}
	return nil
}
