package shardrpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sparta/internal/model"
	"sparta/internal/shardserve"
	"sparta/internal/topk"
)

// ServerConfig parameterizes a Server.
type ServerConfig struct {
	// Name labels the server in its stats snapshot (default the
	// listener address).
	Name string
	// FaultHook, when non-nil, intercepts outgoing frames — the chaos
	// suite's seam for response-side faults.
	FaultHook FaultHook
}

// ServerStats is the counter snapshot exported over the stats RPC and
// aggregated into /stats by examples/server and cmd/indexstat.
type ServerStats struct {
	Name  string `json:"name"`
	Addr  string `json:"addr"`
	Conns int    `json:"conns"`
	// Requests / Resolves / StatsCalls count RPCs served by kind;
	// InFlight is the requests currently executing.
	Requests   int64 `json:"requests"`
	Resolves   int64 `json:"resolves"`
	StatsCalls int64 `json:"stats_calls"`
	InFlight   int64 `json:"in_flight"`
	// Cancels counts cancel frames that found their in-flight request;
	// Errors counts requests answered with a tError frame; BadFrames
	// counts undecodable or corrupt frames received; Disconnects counts
	// connections torn down by the peer or by read failure.
	Cancels     int64 `json:"cancels"`
	Errors      int64 `json:"errors"`
	BadFrames   int64 `json:"bad_frames"`
	Disconnects int64 `json:"disconnects"`
	// UnsettledViolations counts the times the group reported nonzero
	// I/O debt at an idle instant — the server-side enforcement of the
	// Store.Unsettled()==0 invariant per completed request. Always zero
	// in a healthy server. UnsettledNs is the debt right now.
	UnsettledViolations int64 `json:"unsettled_violations"`
	UnsettledNs         int64 `json:"unsettled_ns"`
	// Shards is the served group's per-shard counter breakdown — the PR 7
	// replica/breaker/verify machinery, now on the remote side.
	Shards []shardserve.ShardCounters `json:"shards"`
}

func encodeStatsBody(b []byte, st ServerStats) ([]byte, error) {
	j, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	b = binary.AppendUvarint(b, uint64(len(j)))
	return append(b, j...), nil
}

func decodeStatsBody(b []byte) (ServerStats, error) {
	d := decoder{b: b}
	j := d.bytes()
	if err := d.finish("stats"); err != nil {
		return ServerStats{}, err
	}
	var st ServerStats
	if err := json.Unmarshal(j, &st); err != nil {
		return ServerStats{}, fmt.Errorf("shardrpc: bad stats body: %w", err)
	}
	return st, nil
}

// Server serves shardrpc over a listener, evaluating every search on a
// shardserve.Group — typically a single shard of a built set
// (shardserve.OpenShard) with its replica set, caches, and manifest
// verification all on this side of the wire. Safe for concurrent use.
type Server struct {
	g   *shardserve.Group
	cfg ServerConfig
	ln  net.Listener

	mu     sync.Mutex
	conns  map[*srvConn]struct{}
	closed bool
	wg     sync.WaitGroup

	// reqMu serializes the in-flight count and the idle-instant
	// settlement check, so the check can never race a request that is
	// starting (a false violation) or miss one that is finishing.
	reqMu    sync.Mutex
	inflight int64

	requests, resolves, statsCalls, cancels, remoteErrors   atomic.Int64
	badFrames, disconnects, unsettledViolations, totalConns atomic.Int64
}

// Serve starts serving the group on ln and returns immediately. Close
// (or Shutdown) stops it.
func Serve(ln net.Listener, g *shardserve.Group, cfg ServerConfig) *Server {
	if cfg.Name == "" {
		cfg.Name = ln.Addr().String()
	}
	s := &Server{
		g:     g,
		cfg:   cfg,
		ln:    ln,
		conns: make(map[*srvConn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Listen is Serve plus the listener: it binds addr (e.g.
// "127.0.0.1:9701", or ":0" for an ephemeral port) and starts serving.
func Listen(addr string, g *shardserve.Group, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("shardrpc: listen %s: %w", addr, err)
	}
	return Serve(ln, g, cfg), nil
}

// Addr returns the listener's address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Group returns the served group.
func (s *Server) Group() *shardserve.Group { return s.g }

// InFlight returns the number of requests currently executing.
func (s *Server) InFlight() int64 {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	return s.inflight
}

// Stats returns the server's counter snapshot — the same payload the
// stats RPC serves.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	nconns := len(s.conns)
	s.mu.Unlock()
	return ServerStats{
		Name:                s.cfg.Name,
		Addr:                s.ln.Addr().String(),
		Conns:               nconns,
		Requests:            s.requests.Load(),
		Resolves:            s.resolves.Load(),
		StatsCalls:          s.statsCalls.Load(),
		InFlight:            s.InFlight(),
		Cancels:             s.cancels.Load(),
		Errors:              s.remoteErrors.Load(),
		BadFrames:           s.badFrames.Load(),
		Disconnects:         s.disconnects.Load(),
		UnsettledViolations: s.unsettledViolations.Load(),
		UnsettledNs:         int64(s.g.Unsettled()),
		Shards:              s.g.AllCounters(),
	}
}

// UnsettledViolations returns how many idle instants found nonzero I/O
// debt — zero in a healthy server.
func (s *Server) UnsettledViolations() int64 { return s.unsettledViolations.Load() }

// Close stops accepting, kills every connection (cancelling its
// in-flight requests), and waits for every handler to finish — so after
// Close returns, the group is quiescent and settled.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	_ = s.ln.Close()
	for _, c := range conns {
		c.teardown()
	}
	s.wg.Wait()
}

// Shutdown drains gracefully: stop accepting new connections, wait for
// in-flight requests to complete (bounded by ctx), then close. Existing
// connections stay up during the drain so responses can still go out.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.mu.Unlock()
	if !alreadyClosed {
		_ = s.ln.Close()
	}
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		if s.InFlight() == 0 {
			s.Close()
			return nil
		}
		select {
		case <-ctx.Done():
			s.Close()
			return fmt.Errorf("shardrpc: shutdown drain: %w", ctx.Err())
		case <-t.C:
		}
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = nc.Close()
			return
		}
		c := newSrvConn(s, nc)
		s.conns[c] = struct{}{}
		s.totalConns.Add(1)
		s.wg.Add(1)
		s.mu.Unlock()
		go c.readLoop()
	}
}

// beginRequest / endRequest bracket every RPC that can charge I/O. At
// each idle instant — in-flight count hitting zero — the group's
// settlement invariant is enforced: Store.Unsettled()==0 on every
// completion path, including client-cancelled and mid-flight-
// disconnected requests (their handlers still run to completion here
// and pass through endRequest like any other).
func (s *Server) beginRequest() {
	s.reqMu.Lock()
	s.inflight++
	s.reqMu.Unlock()
}

func (s *Server) endRequest() {
	s.reqMu.Lock()
	s.inflight--
	if s.inflight == 0 && s.g.Unsettled() != 0 {
		s.unsettledViolations.Add(1)
	}
	s.reqMu.Unlock()
}

// search evaluates one remote query on the group. A single-shard group
// (the shardserver arrangement) answers with the shard's own run stats
// — including the anytime stop reason the caller's drop accounting
// keys on — and converts a skipped or failed shard into an error frame,
// which the caller's failover treats as transient. A multi-shard group
// behind one endpoint answers with its aggregate stats.
func (s *Server) search(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	res, sst, err := s.g.SearchShards(ctx, q, opts)
	if err != nil {
		return nil, topk.Stats{}, err
	}
	if len(sst.Shards) == 1 {
		r := sst.Shards[0]
		if r.Skipped {
			return nil, topk.Stats{}, errors.New("shard unavailable: every replica excluded")
		}
		if r.Err != nil {
			return nil, topk.Stats{}, r.Err
		}
		return res, r.Stats, nil
	}
	return res, sst.Stats, nil
}

// srvConn is one accepted connection: a read loop demultiplexing
// requests, per-request cancel functions for tCancel frames, and a
// base context cancelled at teardown so a dropped client never strands
// its in-flight work.
type srvConn struct {
	s  *Server
	c  net.Conn
	fw frameWriter

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	cancels map[uint64]context.CancelFunc
	down    bool
}

func newSrvConn(s *Server, nc net.Conn) *srvConn {
	ctx, cancel := context.WithCancel(context.Background())
	c := &srvConn{
		s:       s,
		c:       nc,
		ctx:     ctx,
		cancel:  cancel,
		cancels: make(map[uint64]context.CancelFunc),
	}
	c.fw = frameWriter{w: nc, hook: s.cfg.FaultHook}
	return c
}

// teardown closes the connection and cancels its in-flight requests;
// their handlers run to completion (settling their I/O) and fail to
// write, which is fine — the peer is gone. Idempotent.
func (c *srvConn) teardown() {
	c.mu.Lock()
	if c.down {
		c.mu.Unlock()
		return
	}
	c.down = true
	c.mu.Unlock()
	c.cancel()
	_ = c.c.Close()
	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
}

func (c *srvConn) readLoop() {
	defer c.s.wg.Done()
	defer c.teardown()
	br := bufio.NewReader(c.c)
	for {
		payload, err := readFrame(br)
		if err != nil {
			if err == ErrGarbled {
				c.s.badFrames.Add(1)
			}
			c.s.disconnects.Add(1)
			return
		}
		typ, id, body := splitHeader(payload)
		switch typ {
		case tSearch:
			c.spawn(id, body, c.handleSearch)
		case tResolve:
			c.spawn(id, body, c.handleResolve)
		case tStats:
			c.spawn(id, body, c.handleStats)
		case tCancel:
			c.mu.Lock()
			cancel := c.cancels[id]
			c.mu.Unlock()
			if cancel != nil {
				c.s.cancels.Add(1)
				cancel()
			}
		default:
			// Unknown type: ignore for forward compatibility.
		}
	}
}

// spawn runs one request handler in its own goroutine under a
// per-request cancellable context registered for tCancel lookup.
func (c *srvConn) spawn(id uint64, body []byte, h func(ctx context.Context, id uint64, body []byte)) {
	rctx, rcancel := context.WithCancel(c.ctx)
	c.mu.Lock()
	c.cancels[id] = rcancel
	c.mu.Unlock()
	c.s.wg.Add(1)
	go func() {
		defer c.s.wg.Done()
		defer func() {
			c.mu.Lock()
			delete(c.cancels, id)
			c.mu.Unlock()
			rcancel()
		}()
		h(rctx, id, body)
	}()
}

func (c *srvConn) handleSearch(ctx context.Context, id uint64, body []byte) {
	budget, q, opts, err := decodeSearchBody(body)
	if err != nil {
		c.s.badFrames.Add(1)
		c.writeError(id, err.Error())
		return
	}
	c.s.requests.Add(1)
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	c.s.beginRequest()
	res, st, serr := c.s.search(ctx, q, opts)
	c.s.endRequest()
	if serr != nil {
		c.s.remoteErrors.Add(1)
		c.writeError(id, serr.Error())
		return
	}
	_ = c.write(encodeResultBody(appendHeader(nil, tResult, id), st, res))
}

func (c *srvConn) handleResolve(ctx context.Context, id uint64, body []byte) {
	q, docs, err := decodeResolveBody(body)
	if err != nil {
		c.s.badFrames.Add(1)
		c.writeError(id, err.Error())
		return
	}
	c.s.resolves.Add(1)
	c.s.beginRequest()
	scores, _ := c.s.g.ResolveScores(ctx, q, docs)
	c.s.endRequest()
	_ = c.write(encodeResolvedBody(appendHeader(nil, tResolved, id), scores))
}

func (c *srvConn) handleStats(_ context.Context, id uint64, _ []byte) {
	c.s.statsCalls.Add(1)
	b, err := encodeStatsBody(appendHeader(nil, tStatsResult, id), c.s.Stats())
	if err != nil {
		c.writeError(id, err.Error())
		return
	}
	_ = c.write(b)
}

func (c *srvConn) writeError(id uint64, msg string) {
	_ = c.write(encodeErrorBody(appendHeader(nil, tError, id), msg))
}

func (c *srvConn) write(payload []byte) error {
	return c.fw.send(payload)
}
