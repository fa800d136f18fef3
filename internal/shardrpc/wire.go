// Package shardrpc puts a wire between the scatter/gather group and
// its shards: a dependency-free framed binary RPC layer over TCP, so a
// shard can be a separate process (cmd/shardserver) whose failures
// arrive as network errors — the language the group's retry / failover
// / breaker machinery already speaks.
//
// Framing: every message is one frame,
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// and every payload starts with a one-byte message type and a u64
// request id. Request ids multiplex concurrent requests over pooled
// connections; responses carry the id back, and an explicit cancel
// message per in-flight id propagates context cancellation without
// tearing down the connection. The CRC makes corrupted ("garbled")
// frames detectable: a receiver that fails the check kills the
// connection rather than trusting the stream, and the client's capped
// redial backoff takes over.
//
// Deadlines travel as *remaining budget* (nanoseconds left when the
// frame was sent), not absolute wall clock — the two processes need not
// share a clock; the server honors at most the budget the client still
// had at send time, restarted from receipt. Responses carry the
// partial top-k and the full topk.Stats, stop reason included, so the
// caller's k-way merge, drop accounting, and exact resolution are
// byte-identical to in-process serving.
package shardrpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sparta/internal/model"
	"sparta/internal/topk"
)

// Message types. The namespace is shared by both directions; unknown
// types are ignored by receivers so the protocol can grow.
const (
	// tSearch carries a query: remaining deadline budget, options, terms.
	tSearch byte = 1
	// tResult answers tSearch: topk.Stats + the (partial) top-k.
	tResult byte = 2
	// tError answers any request with a server-side error string; the
	// client surfaces it as a transient error (ErrRemote) feeding the
	// failover path.
	tError byte = 3
	// tCancel cancels one in-flight request id. The server still
	// responds to the cancelled id (with the anytime partial result), so
	// the client can join the request deterministically.
	tCancel byte = 4
	// tResolve asks for batched exact resolution: query terms plus
	// candidate doc ids.
	tResolve byte = 5
	// tResolved answers tResolve with one exact score per candidate.
	tResolved byte = 6
	// tStats asks for the server's counter snapshot; tStatsResult
	// answers with JSON (admin plane — the search path stays binary).
	tStats       byte = 7
	tStatsResult byte = 8
)

// maxFrame bounds a frame's payload size; both ends refuse larger
// frames (a garbled length field must not allocate gigabytes).
const maxFrame = 16 << 20

// dialTimeout bounds one dial attempt.
const dialTimeout = 2 * time.Second

// frameHeaderLen is the fixed frame prefix: payload length + CRC.
const frameHeaderLen = 8

// payloadHeaderLen is the fixed payload prefix: type byte + request id.
const payloadHeaderLen = 9

// Errors. Every connection-level failure wraps ErrTransport — the
// signal the serving layer maps onto its transient/failover/breaker
// path. Server-reported failures wrap ErrRemote (also transient: the
// next replica may well serve).
var (
	ErrTransport = errors.New("shardrpc: transport failure")
	ErrRemote    = errors.New("shardrpc: remote error")
	// ErrGarbled is a CRC mismatch: the stream can no longer be trusted
	// and the connection is killed.
	ErrGarbled = errors.New("shardrpc: garbled frame (crc mismatch)")
)

// WireFault is an injected mutation of one outgoing frame, used by the
// chaos suite (internal/faultinject's WirePlan decides, this applies).
type WireFault struct {
	// Drop discards the frame — lost on the network, no one will ever
	// know. The sender's request-id bookkeeping is unaffected, so the
	// loss surfaces as the peer's silence.
	Drop bool
	// Garble flips one payload bit after the CRC was computed, so the
	// receiver detects the corruption and kills the connection.
	Garble bool
	// Delay stalls the connection's write path before the frame goes
	// out; later frames queue behind it (head-of-line blocking), which
	// is what a stalled TCP stream does.
	Delay time.Duration
}

// FaultHook inspects every outgoing frame (seq is the connection's
// frame counter, msgType the payload's type byte) and returns the fault
// to apply. Nil means no fault injection.
type FaultHook func(seq uint64, msgType byte) WireFault

// frameWriter serializes frames onto one connection: one writer mutex
// (frames are atomic units on the stream) and the optional fault hook.
type frameWriter struct {
	w    io.Writer
	hook FaultHook
	mu   sync.Mutex
	seq  atomic.Uint64
}

// send frames payload and writes it. The CRC always covers the clean
// payload; an injected garble flips a bit afterwards so the receiver's
// check fails, and an injected delay sleeps while holding the write
// lock so later frames honestly queue behind the stall.
func (fw *frameWriter) send(payload []byte) error {
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderLen:], payload)
	var delay time.Duration
	if fw.hook != nil {
		f := fw.hook(fw.seq.Add(1)-1, payload[0])
		if f.Drop {
			return nil
		}
		if f.Garble {
			frame[frameHeaderLen+len(payload)/2] ^= 0x20
		}
		delay = f.Delay
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	_, err := fw.w.Write(frame)
	return err
}

// readFrame reads one frame's payload, enforcing the size bound and the
// CRC. A CRC mismatch returns ErrGarbled; callers treat it as fatal for
// the connection.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if int(n) > maxFrame {
		return nil, fmt.Errorf("shardrpc: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	if n < payloadHeaderLen {
		return nil, fmt.Errorf("shardrpc: runt frame (%d bytes)", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, ErrGarbled
	}
	return payload, nil
}

// appendHeader starts a payload: type byte + request id.
func appendHeader(b []byte, typ byte, id uint64) []byte {
	b = append(b, typ)
	return binary.BigEndian.AppendUint64(b, id)
}

// splitHeader splits a received payload into (type, id, body).
func splitHeader(payload []byte) (byte, uint64, []byte) {
	return payload[0], binary.BigEndian.Uint64(payload[1:payloadHeaderLen]), payload[payloadHeaderLen:]
}

// ---- body codecs ------------------------------------------------------
//
// Bodies use varints throughout (floats as their IEEE-754 bit patterns).
// The search body carries every scalar topk.Options field; Budget,
// Probe, and Observer are process-local instruments and do not cross
// the wire (the serving layer already strips Probe, and membudget
// charging happens where the memory is — on the server).

func encodeSearchBody(b []byte, budget time.Duration, q model.Query, opts topk.Options) []byte {
	b = binary.AppendUvarint(b, uint64(max(budget, 0)))
	b = binary.AppendUvarint(b, uint64(opts.K))
	b = binary.AppendUvarint(b, uint64(opts.Threads))
	var flags byte
	if opts.Exact {
		flags |= 1
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, int64(opts.Delta))
	b = binary.AppendUvarint(b, math.Float64bits(opts.BoostF))
	b = binary.AppendUvarint(b, math.Float64bits(opts.FracP))
	b = binary.AppendUvarint(b, uint64(opts.SegSize))
	return appendQuery(b, q)
}

func decodeSearchBody(b []byte) (budget time.Duration, q model.Query, opts topk.Options, err error) {
	d := decoder{b: b}
	budget = time.Duration(d.uvarint())
	opts.K = int(d.uvarint())
	opts.Threads = int(d.uvarint())
	opts.Exact = d.byte()&1 != 0
	opts.Delta = time.Duration(d.varint())
	opts.BoostF = math.Float64frombits(d.uvarint())
	opts.FracP = math.Float64frombits(d.uvarint())
	opts.SegSize = int(d.uvarint())
	q = d.query()
	return budget, q, opts, d.finish("search")
}

func encodeResultBody(b []byte, st topk.Stats, res model.TopK) []byte {
	for _, v := range []int64{int64(st.Duration), st.Postings, st.RandomAccesses,
		st.HeapInserts, st.CandidatesPeak, st.Cleanings, int64(st.ShardsDropped)} {
		b = binary.AppendVarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(st.StopReason)))
	b = append(b, st.StopReason...)
	b = binary.AppendUvarint(b, uint64(len(res)))
	for _, r := range res {
		b = binary.AppendUvarint(b, uint64(r.Doc))
		b = binary.AppendVarint(b, int64(r.Score))
	}
	return b
}

func decodeResultBody(b []byte) (model.TopK, topk.Stats, error) {
	d := decoder{b: b}
	var st topk.Stats
	st.Duration = time.Duration(d.varint())
	for _, f := range []*int64{&st.Postings, &st.RandomAccesses, &st.HeapInserts, &st.CandidatesPeak, &st.Cleanings} {
		*f = d.varint()
	}
	st.ShardsDropped = int(d.varint())
	st.StopReason = string(d.bytes())
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)) {
		// Each result costs ≥2 bytes; a count beyond the remaining body
		// is corruption, not a huge result.
		return nil, topk.Stats{}, fmt.Errorf("shardrpc: result count %d exceeds body", n)
	}
	res := make(model.TopK, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		doc := model.DocID(d.uvarint())
		score := model.Score(d.varint())
		res = append(res, model.Result{Doc: doc, Score: score})
	}
	if err := d.finish("result"); err != nil {
		return nil, topk.Stats{}, err
	}
	if len(res) == 0 {
		res = nil
	}
	return res, st, nil
}

func encodeErrorBody(b []byte, msg string) []byte {
	b = binary.AppendUvarint(b, uint64(len(msg)))
	return append(b, msg...)
}

func decodeErrorBody(b []byte) (string, error) {
	d := decoder{b: b}
	msg := string(d.bytes())
	return msg, d.finish("error")
}

func encodeResolveBody(b []byte, q model.Query, docs []model.DocID) []byte {
	b = appendQuery(b, q)
	b = binary.AppendUvarint(b, uint64(len(docs)))
	for _, doc := range docs {
		b = binary.AppendUvarint(b, uint64(doc))
	}
	return b
}

func decodeResolveBody(b []byte) (model.Query, []model.DocID, error) {
	d := decoder{b: b}
	q := d.query()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)) {
		return nil, nil, fmt.Errorf("shardrpc: doc count %d exceeds body", n)
	}
	docs := make([]model.DocID, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		docs = append(docs, model.DocID(d.uvarint()))
	}
	return q, docs, d.finish("resolve")
}

func encodeResolvedBody(b []byte, scores []model.Score) []byte {
	b = binary.AppendUvarint(b, uint64(len(scores)))
	for _, s := range scores {
		b = binary.AppendVarint(b, int64(s))
	}
	return b
}

func decodeResolvedBody(b []byte) ([]model.Score, error) {
	d := decoder{b: b}
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)) {
		return nil, fmt.Errorf("shardrpc: score count %d exceeds body", n)
	}
	scores := make([]model.Score, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		scores = append(scores, model.Score(d.varint()))
	}
	return scores, d.finish("resolved")
}

func appendQuery(b []byte, q model.Query) []byte {
	b = binary.AppendUvarint(b, uint64(len(q)))
	for _, t := range q {
		b = binary.AppendUvarint(b, uint64(t))
	}
	return b
}

// decoder is a cursor over a payload body that latches the first error,
// so codecs read fields straight through and check once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errors.New("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = errors.New("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.err = errors.New("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.err = errors.New("truncated bytes")
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) query() model.Query {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)) {
		d.err = errors.New("term count exceeds body")
		return nil
	}
	q := make(model.Query, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		q = append(q, model.TermID(d.uvarint()))
	}
	return q
}

func (d *decoder) finish(what string) error {
	if d.err != nil {
		return fmt.Errorf("shardrpc: bad %s body: %w", what, d.err)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("shardrpc: bad %s body: %d trailing bytes", what, len(d.b))
	}
	return nil
}
