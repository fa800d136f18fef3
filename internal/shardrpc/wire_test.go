package shardrpc

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
	"time"

	"sparta/internal/model"
	"sparta/internal/topk"
)

func TestSearchBodyRoundTrip(t *testing.T) {
	q := model.Query{3, 90, 7}
	opts := topk.Options{
		K: 25, Threads: 4, Exact: true, Delta: -3,
		BoostF: 1.5, FracP: 0.25, SegSize: 512,
	}
	budget, gotQ, gotOpts, err := decodeSearchBody(encodeSearchBody(nil, 750*time.Millisecond, q, opts))
	if err != nil {
		t.Fatal(err)
	}
	if budget != 750*time.Millisecond {
		t.Fatalf("budget %v, want 750ms", budget)
	}
	if !reflect.DeepEqual(gotQ, q) {
		t.Fatalf("query %v, want %v", gotQ, q)
	}
	if !reflect.DeepEqual(gotOpts, opts) {
		t.Fatalf("opts %+v, want %+v", gotOpts, opts)
	}
	// Zero budget means "no deadline" and must survive too.
	budget, _, _, err = decodeSearchBody(encodeSearchBody(nil, 0, q, topk.Options{K: 1}))
	if err != nil || budget != 0 {
		t.Fatalf("zero budget: %v %v", budget, err)
	}
	// Truncations decode to errors, never panics.
	full := encodeSearchBody(nil, time.Second, q, opts)
	for cut := 0; cut < len(full); cut++ {
		if _, _, _, err := decodeSearchBody(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestResultBodyRoundTrip(t *testing.T) {
	res := model.TopK{{Doc: 4, Score: 100}, {Doc: 9, Score: 3}}
	st := topk.Stats{Postings: 42, StopReason: topk.StopDeadline, Duration: time.Millisecond}
	gotRes, gotSt, err := decodeResultBody(encodeResultBody(nil, st, res))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, res) || !reflect.DeepEqual(gotSt, st) {
		t.Fatalf("got %v %+v, want %v %+v", gotRes, gotSt, res, st)
	}
	// Empty result set decodes to nil, stats intact.
	gotRes, gotSt, err = decodeResultBody(encodeResultBody(nil, st, nil))
	if err != nil || gotRes != nil || gotSt.Postings != 42 {
		t.Fatalf("empty result: %v %+v %v", gotRes, gotSt, err)
	}
	// A result count pointing past the body is corruption, not a request
	// for a huge allocation.
	bad := encodeResultBody(nil, st, nil)
	bad = bad[:len(bad)-1]
	bad = binary.AppendUvarint(bad, 1<<40)
	if _, _, err := decodeResultBody(bad); err == nil {
		t.Fatal("absurd result count accepted")
	}
}

// TestStatsWireRoundTrip: every topk.Stats field crosses the wire in a
// result body unchanged, negative and empty values included.
func TestStatsWireRoundTrip(t *testing.T) {
	cases := []topk.Stats{
		{},
		{
			Duration:       1234567 * time.Nanosecond,
			Postings:       987654321,
			RandomAccesses: 42,
			HeapInserts:    7,
			CandidatesPeak: 100000,
			Cleanings:      3,
			StopReason:     topk.StopDeadline,
			ShardsDropped:  2,
		},
		{Duration: -1, Postings: -5, StopReason: "exhausted"},
		{StopReason: ""},
	}
	res := model.TopK{{Doc: 1, Score: 9}}
	for i, want := range cases {
		gotRes, got, err := decodeResultBody(encodeResultBody(nil, want, res))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got != want || !reflect.DeepEqual(gotRes, res) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v %v\nwant %+v %v", i, got, gotRes, want, res)
		}
	}
}

// TestStatsWireTrailingBytes: a result body followed by bytes it does
// not account for is refused, not read past.
func TestStatsWireTrailingBytes(t *testing.T) {
	b := encodeResultBody(nil, topk.Stats{Postings: 9, StopReason: "safe"}, nil)
	if _, _, err := decodeResultBody(append(b, 0xDE, 0xAD)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestStatsWireRejects: a result body cut anywhere, inside its stats or
// its results, decodes to an error, never a panic.
func TestStatsWireRejects(t *testing.T) {
	full := encodeResultBody(nil, topk.Stats{Postings: 1 << 40, StopReason: "delta"}, model.TopK{{Doc: 3, Score: 5}})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := decodeResultBody(full[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(full))
		}
	}
}

func TestResolveBodyRoundTrip(t *testing.T) {
	q := model.Query{1, 2}
	docs := []model.DocID{0, 7, 1 << 30}
	gotQ, gotDocs, err := decodeResolveBody(encodeResolveBody(nil, q, docs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotQ, q) || !reflect.DeepEqual(gotDocs, docs) {
		t.Fatalf("got %v %v, want %v %v", gotQ, gotDocs, q, docs)
	}
	scores := []model.Score{5, 0, 123456}
	gotScores, err := decodeResolvedBody(encodeResolvedBody(nil, scores))
	if err != nil || !reflect.DeepEqual(gotScores, scores) {
		t.Fatalf("scores %v %v, want %v", gotScores, err, scores)
	}
}

func TestFrameRejectsCorruptionAndRunts(t *testing.T) {
	payload := appendHeader(nil, tResult, 7)
	payload = append(payload, "body"...)
	var buf bytes.Buffer
	fw := frameWriter{w: &buf}
	if err := fw.send(payload); err != nil {
		t.Fatal(err)
	}
	clean := append([]byte(nil), buf.Bytes()...)

	got, err := readFrame(bytes.NewReader(clean))
	if err != nil {
		t.Fatal(err)
	}
	typ, id, body := splitHeader(got)
	if typ != tResult || id != 7 || string(body) != "body" {
		t.Fatalf("clean frame: %d %d %q", typ, id, body)
	}

	// Flip one payload bit: the checksum must catch it.
	bad := append([]byte(nil), clean...)
	bad[len(bad)-1] ^= 1
	if _, err := readFrame(bytes.NewReader(bad)); err != ErrGarbled {
		t.Fatalf("corrupt frame: err %v, want ErrGarbled", err)
	}

	// An oversized frame is rejected before allocation: its header
	// alone, claiming one byte more than the bound, is refused.
	huge := make([]byte, frameHeaderLen)
	binary.BigEndian.PutUint32(huge[0:4], maxFrame+1)
	if _, err := readFrame(bytes.NewReader(huge)); err == nil || err == ErrGarbled {
		t.Fatalf("oversized frame: err %v, want a size error", err)
	}

	// A runt payload (shorter than type + request id) is rejected even
	// with a valid checksum.
	runt := make([]byte, frameHeaderLen+1)
	runt[frameHeaderLen] = tResult
	binary.BigEndian.PutUint32(runt[0:4], 1)
	binary.BigEndian.PutUint32(runt[4:8], crc32.ChecksumIEEE(runt[frameHeaderLen:]))
	if _, err := readFrame(bytes.NewReader(runt)); err == nil {
		t.Fatal("runt frame accepted")
	}

	// An injected garble is detected exactly like real corruption.
	var gbuf bytes.Buffer
	gw := frameWriter{w: &gbuf, hook: func(uint64, byte) WireFault { return WireFault{Garble: true} }}
	if err := gw.send(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(bytes.NewReader(gbuf.Bytes())); err != ErrGarbled {
		t.Fatalf("injected garble: err %v, want ErrGarbled", err)
	}

	// An injected drop writes nothing at all.
	var dbuf bytes.Buffer
	dw := frameWriter{w: &dbuf, hook: func(uint64, byte) WireFault { return WireFault{Drop: true} }}
	if err := dw.send(payload); err != nil {
		t.Fatal(err)
	}
	if dbuf.Len() != 0 {
		t.Fatalf("dropped frame wrote %d bytes", dbuf.Len())
	}
}
