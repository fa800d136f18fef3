package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRegisterFunc(t *testing.T) {
	r := NewRegistry()
	n := 0
	r.RegisterFunc("lazy", func() any { n++; return n })
	if v := r.Snapshot()["lazy"]; v != 1 {
		t.Fatalf("first snapshot = %v, want 1", v)
	}
	if v := r.Snapshot()["lazy"]; v != 2 {
		t.Fatalf("second snapshot = %v, want 2 (func must re-evaluate)", v)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc("b.count", func() any { return int64(2) })
	r.RegisterFunc("a.rate", func() any { return 0.5 })
	r.RegisterFunc("c.info", func() any { return map[string]any{"ok": true} })
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, buf.String())
	}
	if got["b.count"] != float64(2) || got["a.rate"] != 0.5 {
		t.Fatalf("decoded = %v", got)
	}
	// Keys must come out sorted for diff-able scrapes.
	if idx := bytes.Index(buf.Bytes(), []byte("a.rate")); idx < 0 || idx > bytes.Index(buf.Bytes(), []byte("b.count")) {
		t.Fatalf("keys not sorted:\n%s", buf.String())
	}
}

// TestWriteJSONEncodingPinned pins the emission byte for byte: sorted
// keys, two-space indent, nested values one level deeper, trailing
// newline. Scrapers diff consecutive /stats scrapes, so the encoding is
// a contract — a change here is a breaking change, not a cleanup.
func TestWriteJSONEncodingPinned(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc("serve.queries", func() any { return int64(7) })
	r.RegisterFunc("cache.hit_rate", func() any { return 0.25 })
	r.RegisterFunc("breaker", func() any {
		return map[string]any{"state": "open", "trips": 3}
	})
	r.RegisterFunc("addrs", func() any { return []string{"a:1", "b:2"} })
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{
  "addrs": [
    "a:1",
    "b:2"
  ],
  "breaker": {
    "state": "open",
    "trips": 3
  },
  "cache.hit_rate": 0.25,
  "serve.queries": 7
}
`
	if buf.String() != want {
		t.Fatalf("encoding changed:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}

	// An empty registry emits an empty object, still newline-terminated.
	var empty bytes.Buffer
	if err := NewRegistry().WriteJSON(&empty); err != nil {
		t.Fatal(err)
	}
	if empty.String() != "{}\n" {
		t.Fatalf("empty registry: %q, want %q", empty.String(), "{}\n")
	}
}

// TestConcurrentUse registers, re-registers and snapshots from several
// goroutines at once; the race detector checks the registry's lock.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var shared atomic.Int64
	r.RegisterFunc("shared", func() any { return shared.Load() })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("g%d", i)
			for j := 0; j < 1000; j++ {
				shared.Add(1)
				v := j
				r.RegisterFunc(name, func() any { return v })
				r.Snapshot()
			}
		}(i)
	}
	wg.Wait()
	snap := r.Snapshot()
	if v := snap["shared"]; v != int64(8000) {
		t.Fatalf("shared = %v, want 8000", v)
	}
	for i := 0; i < 8; i++ {
		if v := snap[fmt.Sprintf("g%d", i)]; v != 999 {
			t.Fatalf("g%d = %v, want 999 (the last registration)", i, v)
		}
	}
}
