// The peer client: one RPC at a time per connection, a small idle pool
// per peer, and cancellation by closing the socket. There is no
// in-band cancel message — when the caller's context fires, a watchdog
// closes the connection, the server's read monitor sees the hangup and
// cancels the shard query, and the connection is simply not returned to
// the pool. Hedged requests lean on this: canceling the losing replica
// costs one TCP teardown and nothing else.

package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"pis/internal/binio"
	"pis/internal/obs"
)

// dialTimeout bounds connection establishment when the caller's context
// carries no deadline of its own.
const dialTimeout = 2 * time.Second

// maxIdleConns bounds the per-peer connection pool; beyond it, finished
// connections are closed instead of parked.
const maxIdleConns = 8

// peer is the client side of one remote node.
type peer struct {
	addr string

	mu   sync.Mutex
	idle []*pconn

	rpcSeconds *obs.Histogram
	rpcErrors  *obs.Counter
}

type pconn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func newPeer(addr string) *peer {
	return &peer{
		addr:       addr,
		rpcSeconds: mRPCSeconds.With(addr),
		rpcErrors:  mRPCErrors.With(addr),
	}
}

// get returns a pooled connection (fresh=false) or dials (fresh=true).
func (p *peer) get(ctx context.Context) (pc *pconn, fresh bool, err error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		pc = p.idle[n-1]
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()
	if pc != nil {
		return pc, false, nil
	}
	d := net.Dialer{Timeout: dialTimeout}
	c, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, true, err
	}
	return &pconn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}, true, nil
}

func (p *peer) put(pc *pconn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) >= maxIdleConns {
		pc.c.Close()
		return
	}
	p.idle = append(p.idle, pc)
}

// closeIdle drops the pool (e.g. at coordinator shutdown).
func (p *peer) closeIdle() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, pc := range idle {
		pc.c.Close()
	}
}

// call runs one RPC. decode (optional) consumes the response payload —
// and, for multi-section responses, any follow-on sections — directly
// from the connection's section reader; the connection returns to the
// pool only after decode finishes cleanly. A pooled connection that
// fails on first use (closed by the server while idle) is retried once
// on a fresh dial; errors on a fresh connection are final.
func (p *peer) call(ctx context.Context, op byte, req []byte, decode func(*binio.SectionReader) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	for {
		pc, fresh, err := p.get(ctx)
		if err != nil {
			p.countError(ctx)
			return fmt.Errorf("cluster: dial %s: %w", p.addr, err)
		}
		err = p.roundTrip(ctx, pc, op, req, decode)
		if err == nil {
			p.rpcSeconds.ObserveSince(start)
			return nil
		}
		var re *remoteError
		if errors.As(err, &re) {
			// The RPC itself completed; the connection is healthy.
			p.countError(ctx)
			return err
		}
		if !fresh && ctx.Err() == nil {
			continue // stale pooled connection; retry on a fresh dial
		}
		p.countError(ctx)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return fmt.Errorf("cluster: rpc to %s: %w", p.addr, err)
	}
}

// countError counts a failed RPC unless ctx is done: the caller giving
// up, or hedged cancelling the attempt a sibling beat, is not the peer
// failing.
func (p *peer) countError(ctx context.Context) {
	if ctx.Err() == nil {
		p.rpcErrors.Inc()
	}
}

// roundTrip writes one framed request and decodes one framed response
// on pc. On any transport error pc is closed and never pooled.
func (p *peer) roundTrip(ctx context.Context, pc *pconn, op byte, req []byte, decode func(*binio.SectionReader) error) (err error) {
	healthy := false
	defer func() {
		if healthy {
			p.put(pc)
		} else {
			pc.c.Close()
		}
	}()

	// Belt and braces under the context watchdog: a wire deadline also
	// bounds the raw socket, so a peer that stops reading cannot park this
	// call forever even with a deadline-free context.
	wire := time.Now().Add(time.Hour)
	if dl, ok := ctx.Deadline(); ok {
		wire = dl.Add(time.Second) // let the remote's own timeout answer first
	}
	if err := pc.c.SetDeadline(wire); err != nil {
		return err
	}

	w := watch(ctx, pc.c)
	defer func() {
		if w.finish() { // watchdog closed the socket: cancellation, not transport
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
			}
		}
	}()

	sw := binio.NewSectionWriter(pc.bw)
	sw.Begin()
	sw.U8(op)
	sw.Uvarint(deadlineMicros(ctx))
	sw.Bytes(req)
	if err := sw.Flush(); err != nil {
		return err
	}
	if err := pc.bw.Flush(); err != nil {
		return err
	}

	sr := binio.NewSectionReader(pc.br)
	if err := sr.Next(); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	switch status := sr.U8(); status {
	case statusOK:
	case statusErr:
		msg := string(sr.Bytes(sr.Remaining()))
		healthy = true
		return &remoteError{msg: msg}
	default:
		return fmt.Errorf("unknown response status %d", status)
	}
	if decode != nil {
		if err := decode(sr); err != nil {
			return err
		}
	}
	healthy = true
	return pc.c.SetDeadline(time.Time{})
}

// watchdog closes the connection when the context fires mid-RPC.
type watchdog struct {
	stop   chan struct{}
	closed chan bool
}

func watch(ctx context.Context, c net.Conn) *watchdog {
	w := &watchdog{stop: make(chan struct{}), closed: make(chan bool, 1)}
	done := ctx.Done()
	if done == nil {
		w.closed <- false
		return w
	}
	go func() {
		select {
		case <-done:
			c.Close()
			w.closed <- true
		case <-w.stop:
			w.closed <- false
		}
	}()
	return w
}

// finish stops the watchdog, reporting whether it closed the socket.
func (w *watchdog) finish() bool {
	close(w.stop)
	return <-w.closed
}
