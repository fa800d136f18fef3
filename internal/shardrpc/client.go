package shardrpc

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sparta/internal/model"
	"sparta/internal/topk"
)

// Config parameterizes a Client.
type Config struct {
	// Name is the client's topk.Algorithm name (default "remote"). The
	// serving layer folds it into the group name; it carries no protocol
	// meaning.
	Name string
	// Conns is the connection pool size (default 1). Requests multiplex
	// over every connection by id, so one connection already carries
	// arbitrary concurrency; more connections spread head-of-line
	// blocking risk.
	Conns int
	// RedialBackoff is the wait after a failed dial before the next dial
	// is attempted on that connection slot, doubling per consecutive
	// failure up to RedialBackoffMax (defaults 50ms / 2s). Requests
	// arriving inside the backoff window fail fast with ErrTransport —
	// the capped-backoff reconnect contract: a dead server costs one
	// dial per window, not one per query.
	RedialBackoff    time.Duration
	RedialBackoffMax time.Duration
	// CancelGrace bounds how long a cancelled request waits for the
	// server's anytime partial response after sending the cancel frame
	// (default 250ms). Past it the request reports ErrTransport; the
	// connection stays up (a late response for the id is discarded).
	CancelGrace time.Duration
	// FaultHook, when non-nil, intercepts outgoing frames — the chaos
	// suite's seam.
	FaultHook FaultHook
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "remote"
	}
	if c.Conns <= 0 {
		c.Conns = 1
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 50 * time.Millisecond
	}
	if c.RedialBackoffMax <= 0 {
		c.RedialBackoffMax = 2 * time.Second
	}
	if c.CancelGrace <= 0 {
		c.CancelGrace = 250 * time.Millisecond
	}
	return c
}

// Counters is a client's transport telemetry snapshot.
type Counters struct {
	Dials       int64 `json:"dials"`
	DialFails   int64 `json:"dial_fails"`
	FastFails   int64 `json:"fast_fails"`
	ConnDeaths  int64 `json:"conn_deaths"`
	CancelsSent int64 `json:"cancels_sent"`
	Garbled     int64 `json:"garbled"`
}

// Client speaks the shardrpc protocol to one shardserver endpoint. It
// implements topk.Algorithm (so a shardserve.Replica can point Alg at
// it) and shardserve.Resolver. Safe for concurrent use; connections
// dial lazily and redial with capped backoff.
type Client struct {
	addr string
	cfg  Config

	mu      sync.Mutex
	conns   []*clientConn // slot i is nil until dialed
	rr      int           // round-robin cursor over slots
	retryAt time.Time     // no dials before this instant
	backoff time.Duration
	closed  bool

	ids atomic.Uint64

	dials, dialFails, fastFails, connDeaths, cancelsSent, garbled atomic.Int64
}

// NewClient creates a client for addr. No connection is made until the
// first request.
func NewClient(addr string, cfg Config) *Client {
	return &Client{addr: addr, cfg: cfg.withDefaults()}
}

// Addr returns the endpoint the client dials.
func (cl *Client) Addr() string { return cl.addr }

// Name implements topk.Algorithm.
func (cl *Client) Name() string { return cl.cfg.Name }

// Counters returns the client's transport telemetry.
func (cl *Client) Counters() Counters {
	return Counters{
		Dials:       cl.dials.Load(),
		DialFails:   cl.dialFails.Load(),
		FastFails:   cl.fastFails.Load(),
		ConnDeaths:  cl.connDeaths.Load(),
		CancelsSent: cl.cancelsSent.Load(),
		Garbled:     cl.garbled.Load(),
	}
}

// Close closes every connection; in-flight requests fail with
// ErrTransport. The client is unusable afterwards.
func (cl *Client) Close() {
	cl.mu.Lock()
	cl.closed = true
	conns := append([]*clientConn(nil), cl.conns...)
	cl.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			c.fail(fmt.Errorf("%w: client closed", ErrTransport))
		}
	}
}

// grab returns a live connection, dialing (under the capped backoff) if
// the chosen pool slot is dead.
func (cl *Client) grab() (*clientConn, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil, fmt.Errorf("%w: client closed", ErrTransport)
	}
	if cl.conns == nil {
		cl.conns = make([]*clientConn, cl.cfg.Conns)
	}
	slot := cl.rr % len(cl.conns)
	cl.rr++
	if c := cl.conns[slot]; c != nil && !c.isDead() {
		return c, nil
	}
	// Slot needs a dial. Inside the backoff window, fail fast: a dead
	// server costs one dial per window, not one per query. But if any
	// *other* slot is live, use it instead of failing.
	if !cl.retryAt.IsZero() && time.Now().Before(cl.retryAt) {
		for _, c := range cl.conns {
			if c != nil && !c.isDead() {
				return c, nil
			}
		}
		cl.fastFails.Add(1)
		return nil, fmt.Errorf("%w: %s unreachable (in redial backoff)", ErrTransport, cl.addr)
	}
	cl.dials.Add(1)
	nc, err := net.DialTimeout("tcp", cl.addr, dialTimeout)
	if err != nil {
		cl.dialFails.Add(1)
		if cl.backoff == 0 {
			cl.backoff = cl.cfg.RedialBackoff
		} else {
			cl.backoff *= 2
			if cl.backoff > cl.cfg.RedialBackoffMax {
				cl.backoff = cl.cfg.RedialBackoffMax
			}
		}
		cl.retryAt = time.Now().Add(cl.backoff)
		return nil, fmt.Errorf("%w: dial %s: %v", ErrTransport, cl.addr, err)
	}
	cl.backoff = 0
	cl.retryAt = time.Time{}
	c := newClientConn(cl, nc)
	cl.conns[slot] = c
	return c, nil
}

// Search implements topk.Algorithm.
func (cl *Client) Search(q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	return cl.SearchContext(context.Background(), q, opts)
}

// SearchContext implements topk.Algorithm over the wire: the query,
// the remaining deadline budget, and the scalar options go out; the
// partial top-k, stats, and stop reason come back. Cancellation sends
// an explicit cancel frame and waits (bounded by CancelGrace) for the
// server's anytime partial result, preserving the local contract that
// a cancelled search returns what it had, with a stop reason and no
// error. Every connection-level failure wraps ErrTransport.
func (cl *Client) SearchContext(ctx context.Context, q model.Query, opts topk.Options) (model.TopK, topk.Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, topk.Stats{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var budget time.Duration
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl)
		if budget <= 0 {
			// Already expired: the anytime contract without a round trip,
			// exactly what a local algorithm would report.
			return nil, topk.Stats{StopReason: topk.StopDeadline}, nil
		}
	}
	body, cancelled, err := cl.call(ctx, tSearch, tResult, encodeSearchBody(nil, budget, q, opts), true)
	if err != nil {
		return nil, topk.Stats{}, err
	}
	res, st, err := decodeResultBody(body)
	if err == nil && cancelled && (st.StopReason == "" || st.StopReason == topk.StopCancelled) {
		// The server stopping on our cancel frame is an artifact of the
		// protocol; the reason the caller observes must reflect why this
		// side cancelled, exactly as a local algorithm watching the same
		// context would report it. (A server-side StopDeadline — its own
		// budget fired first — stands.)
		st.StopReason = topk.StopReasonFor(ctx.Err())
	}
	return res, st, err
}

// Resolve implements shardserve.Resolver: batched exact resolution of
// candidate scores against the server's view.
func (cl *Client) Resolve(ctx context.Context, q model.Query, docs []model.DocID) ([]model.Score, error) {
	body, _, err := cl.call(ctx, tResolve, tResolved, encodeResolveBody(nil, q, docs), true)
	if err != nil {
		return nil, err
	}
	return decodeResolvedBody(body)
}

// ServerStats fetches the server's counter snapshot over the stats RPC.
// It returns as soon as ctx ends, without waiting for the server.
func (cl *Client) ServerStats(ctx context.Context) (ServerStats, error) {
	body, _, err := cl.call(ctx, tStats, tStatsResult, nil, false)
	if err != nil {
		return ServerStats{}, err
	}
	return decodeStatsBody(body)
}

// call is the one request path: it grabs a connection, sends one
// request frame of type typ, and waits for the response, returning its
// body when the response has type want. If ctx ends first, a joining
// call (join) sends a cancel frame and waits up to CancelGrace for the
// server's answer, reporting cancelled, so the request is joined, never
// leaked; a non-joining call returns ctx's error at once. Connection
// failures, grace misses and unexpected response types wrap
// ErrTransport, a server-reported failure ErrRemote. On a send failure
// the connection is torn down (the stream position is unknowable); a
// grace miss leaves it up, and a late response for the id is
// discarded.
func (cl *Client) call(ctx context.Context, typ, want byte, body []byte, join bool) (resp []byte, cancelled bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c, err := cl.grab()
	if err != nil {
		return nil, false, err
	}
	id := cl.ids.Add(1)
	ch := c.register(id)
	defer c.unregister(id)
	if err := c.send(typ, id, body); err != nil {
		c.fail(fmt.Errorf("%w: send: %v", ErrTransport, err))
		return nil, false, fmt.Errorf("%w: send: %v", ErrTransport, err)
	}
	var r respFrame
	select {
	case r = <-ch:
	case <-ctx.Done():
		if !join {
			return nil, false, fmt.Errorf("%w: %v", ErrTransport, ctx.Err())
		}
		cancelled = true
		cl.cancelsSent.Add(1)
		_ = c.send(tCancel, id, nil)
		t := time.NewTimer(cl.cfg.CancelGrace)
		defer t.Stop()
		select {
		case r = <-ch:
		case <-t.C:
			return nil, true, fmt.Errorf("%w: cancelled, no response within grace", ErrTransport)
		}
	}
	switch {
	case r.err != nil:
		return nil, cancelled, fmt.Errorf("%w: %v", ErrTransport, r.err)
	case r.typ == want:
		return r.body, cancelled, nil
	case r.typ == tError:
		msg, _ := decodeErrorBody(r.body)
		return nil, cancelled, fmt.Errorf("%w: %s", ErrRemote, msg)
	default:
		return nil, cancelled, fmt.Errorf("%w: unexpected response type %d", ErrTransport, r.typ)
	}
}

// respFrame is one response delivered to a waiting request: the frame,
// or the connection-level error that killed it.
type respFrame struct {
	typ  byte
	body []byte
	err  error
}

// clientConn is one pooled connection: a write path (frameWriter), a
// read loop dispatching responses by request id, and the pending-map
// bookkeeping that joins the two.
type clientConn struct {
	c     net.Conn
	owner *Client
	fw    frameWriter

	mu      sync.Mutex
	pending map[uint64]chan respFrame
	dead    bool
}

func newClientConn(cl *Client, nc net.Conn) *clientConn {
	c := &clientConn{
		c:       nc,
		owner:   cl,
		pending: make(map[uint64]chan respFrame),
	}
	c.fw = frameWriter{w: nc, hook: cl.cfg.FaultHook}
	go c.readLoop()
	return c
}

func (c *clientConn) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

func (c *clientConn) register(id uint64) chan respFrame {
	ch := make(chan respFrame, 1)
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		ch <- respFrame{err: fmt.Errorf("connection closed")}
		return ch
	}
	c.pending[id] = ch
	c.mu.Unlock()
	return ch
}

func (c *clientConn) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

func (c *clientConn) send(typ byte, id uint64, body []byte) error {
	payload := appendHeader(make([]byte, 0, payloadHeaderLen+len(body)), typ, id)
	payload = append(payload, body...)
	return c.fw.send(payload)
}

// fail kills the connection: every pending request learns the error,
// future registrations refuse, and the socket closes. Idempotent.
func (c *clientConn) fail(err error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	pend := c.pending
	c.pending = make(map[uint64]chan respFrame)
	c.mu.Unlock()
	c.owner.connDeaths.Add(1)
	for _, ch := range pend {
		select {
		case ch <- respFrame{err: err}:
		default:
		}
	}
	_ = c.c.Close()
}

// readLoop dispatches response frames to their waiting requests. Any
// read error — including a CRC mismatch, after which the stream cannot
// be trusted — kills the connection.
func (c *clientConn) readLoop() {
	br := bufio.NewReader(c.c)
	for {
		payload, err := readFrame(br)
		if err != nil {
			if err == ErrGarbled {
				c.owner.garbled.Add(1)
			}
			c.fail(fmt.Errorf("%w: read: %v", ErrTransport, err))
			return
		}
		typ, id, body := splitHeader(payload)
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- respFrame{typ: typ, body: body}:
			default:
			}
		}
		// No waiter: a response that outlived its request's cancel grace.
		// Discard — the request already reported.
	}
}
