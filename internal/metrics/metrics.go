// Package metrics is a dependency-free metrics registry — the
// expvar-style sink ROADMAP asks for, sized for this repo: named,
// lazily-evaluated functions over values that already live elsewhere
// (Searcher counters, cache snapshots, per-shard health). A Registry
// serializes to flat JSON, so examples/server's /stats endpoint is one
// WriteJSON call instead of hand-rolled marshaling, and scrapers get a
// stable, greppable namespace ("searcher.sparta.queries",
// "shard.3.deadline_misses").
//
// All operations are safe for concurrent use. Snapshot holds the
// registry lock only to copy the name table, then evaluates outside it.
package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sort"
	"sync"
)

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu   sync.Mutex
	vars map[string]func() any
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: make(map[string]func() any)}
}

// RegisterFunc registers a value computed at snapshot time — for
// metrics whose source of truth lives elsewhere (an atomic a Searcher
// already maintains, a cache's Snapshot field). f must be safe for
// concurrent use and must return a JSON-marshalable value.
// Re-registering a name replaces the previous function.
func (r *Registry) RegisterFunc(name string, f func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.vars[name] = f
}

// Snapshot evaluates every metric and returns a name → value map.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	fns := maps.Clone(r.vars)
	r.mu.Unlock()
	out := make(map[string]any, len(fns))
	for n, f := range fns {
		out[n] = f()
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON, terminated by a
// newline. Keys are emitted in sorted order explicitly — scrapers and
// the tests pin the byte encoding, so the ordering is part of this
// package's contract, not an accident of how encoding/json happens to
// serialize maps.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)

	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString("\n  ")
		key, err := json.Marshal(n)
		if err != nil {
			return err
		}
		buf.Write(key)
		buf.WriteString(": ")
		// Nested values indent one level deeper, matching what a single
		// MarshalIndent of the whole map would emit.
		val, err := json.MarshalIndent(snap[n], "  ", "  ")
		if err != nil {
			return fmt.Errorf("metrics: %q: %w", n, err)
		}
		buf.Write(val)
	}
	if len(names) > 0 {
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	_, err := w.Write(buf.Bytes())
	return err
}
