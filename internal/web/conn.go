package web

import (
	"edisim/internal/netsim"
	"edisim/internal/sim"
)

// webConn is a pooled client connection driven as a state machine, the
// connection-level counterpart of webReq: a SYN handshake with kernel
// retransmits, then CallsPerConn sequential requests, then close. There is
// one handshake and one request loop. Recovery (RequestTimeout > 0) is a
// stage inside them: it steers SYNs and requests around down servers, arms
// a retransmit timer per SYN and a timeout per request attempt, and
// retries. With recovery off no timer is armed and nothing is steered or
// retried — the paper's healthy httperf client.
//
// Every step is a continuation bound once per record, so the steady-state
// connection path allocates nothing. A SYN or reply that can outlive its
// step carries a stamp of gen, which advances whenever the step is
// superseded and on recycling, so a late one is ignored even by a record
// that has moved on to another connection. Timers are cancelled eagerly
// instead: at most one is live per record. A connection stranded by a crash
// or cut link never recycles; its record is lost to the pool, like the
// connection itself.
type webConn struct {
	rs     *runState
	client netsim.Vertex
	srv    *WebServer // SYN target, then the established server
	target *WebServer // server the current request attempt went to

	connStart, reqStart sim.Time
	synAttempt          int          // kernel retransmits used (index into Params.RetryBackoff)
	call                int          // requests issued so far
	sends               int          // transmissions of the current call
	gen                 uint64       // stamp of the current step (see above)
	timer               sim.EventRef // the live SYN-retransmit or request timer

	sendSynFn, droppedFn, failFn, timedOutFn, retryFn func()
	replyFn                                           func(uint64, bool)
}

// synTry is one SYN in flight. It recycles at the end of its own chain,
// not with its connection: a superseded attempt's SYN-ACK still travels
// from the server that accepted it to the client that sent it.
type synTry struct {
	c                             *webConn
	target                        *WebServer
	client                        netsim.Vertex
	stamp                         uint64
	arrivedFn, acceptFn, synAckFn func()
}

// pool is a freelist of records grown in chunks; bind pre-binds a fresh
// record's continuations.
type pool[T any] struct{ free []*T }

func (p *pool[T]) get(bind func(*T)) *T {
	if len(p.free) == 0 {
		chunk := make([]T, 64)
		for i := range chunk {
			bind(&chunk[i])
			p.free = append(p.free, &chunk[i])
		}
	}
	x := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return x
}

func (p *pool[T]) put(x *T) { p.free = append(p.free, x) }

func bindConn(c *webConn) {
	c.sendSynFn, c.droppedFn, c.failFn = c.sendSyn, c.dropped, c.fail
	c.timedOutFn, c.retryFn, c.replyFn = c.timedOut, c.retry, c.replied
}

func bindTry(t *synTry) { t.arrivedFn, t.acceptFn, t.synAckFn = t.arrived, t.accepted, t.synAcked }

// launch opens one connection from client to w.
func (rs *runState) launch(client netsim.Vertex, w *WebServer) {
	c := rs.d.conns.get(bindConn)
	c.rs, c.client, c.srv = rs, client, w
	c.connStart = rs.d.Eng.Now()
	c.synAttempt = 0
	c.sendSyn()
}

// recycle returns the record to the pool, turning every stamp still in
// flight stale.
func (c *webConn) recycle() {
	d := c.rs.d
	c.gen++
	c.rs, c.srv, c.target, c.timer = nil, nil, nil, sim.EventRef{}
	d.conns.put(c)
}

// sendSyn sends one SYN (~60 bytes). Under recovery it first steers around
// a down server, then arms the retransmit timer at the backoff schedule's
// current step: a SYN or SYN-ACK lost to a cut link gets no feedback.
func (c *webConn) sendSyn() {
	rs := c.rs
	d := rs.d
	if rs.recover {
		if c.srv = d.steer(c.srv); !c.srv.Node.Up() {
			c.fail()
			return
		}
	}
	c.gen++
	t := d.tries.get(bindTry)
	t.c, t.target, t.client, t.stamp = c, c.srv, c.client, c.gen
	d.Fab.Send(c.client, c.srv.vertex, rpcHeaderBytes, t.arrivedFn)
	if rs.recover {
		step := min(c.synAttempt, len(rs.synTimers)-1)
		c.timer = rs.synTimers[step].After(d.Params.RetryBackoff[step], c.droppedFn)
	}
}

// arrived runs at the server: refuse outright, queue for accept, or drop.
func (t *synTry) arrived() {
	c, w := t.c, t.target
	d := w.dep
	switch {
	case t.stamp != c.gen:
	case w.refuseConn():
		c.refused(w)
	default:
		if at, ok := w.admitConn(); ok {
			w.acceptQ.At(at, t.acceptFn)
			return
		}
		c.dropped()
	}
	t.c, t.target = nil, nil
	d.tries.put(t)
}

// accepted runs when the server gets to the queued SYN: SYN-ACK back.
func (t *synTry) accepted() {
	t.target.acceptConn()
	t.target.dep.Fab.Send(t.target.vertex, t.client, rpcHeaderBytes, t.synAckFn)
}

// synAcked runs at the client; the connection is usable unless this
// attempt was superseded meanwhile.
func (t *synTry) synAcked() {
	c, d, current := t.c, t.target.dep, t.stamp == t.c.gen
	t.c, t.target = nil, nil
	d.tries.put(t)
	if current {
		c.timer.Cancel()
		c.call = 0
		c.nextCall()
	}
}

// refused handles a shed SYN: the RST makes the client give up at once
// (no kernel retries), keeping the backlog below the thrash region.
func (c *webConn) refused(w *WebServer) {
	c.gen++
	c.timer.Cancel()
	c.rs.d.noteShed()
	c.rs.d.Fab.Send(w.vertex, c.client, rpcHeaderBytes, c.failFn)
}

// dropped handles a SYN lost to a full backlog or a down host, or a
// retransmit timeout: resend after the kernel schedule's next step, or
// give up once it is exhausted.
func (c *webConn) dropped() {
	c.gen++
	c.timer.Cancel()
	d := c.rs.d
	if rb := d.Params.RetryBackoff; c.synAttempt < len(rb) {
		c.synAttempt++
		d.Eng.After(rb[c.synAttempt-1], c.sendSynFn)
		return
	}
	c.fail()
}

// fail books a connection that never got established.
func (c *webConn) fail() {
	rs := c.rs
	rs.d.noteSettled(false, 0)
	if rs.inWindow() {
		rs.res.ConnFailures++
		rs.res.ConnDelays.Add(float64(rs.d.Eng.Now() - c.connStart))
	}
	c.recycle()
}

// nextCall issues the next request, or closes the connection after
// CallsPerConn. Under recovery each call starts from a live server.
func (c *webConn) nextCall() {
	rs := c.rs
	if c.call >= rs.cfg.CallsPerConn {
		c.srv.closeConn()
		c.recycle()
		return
	}
	c.call++
	c.reqStart = rs.d.Eng.Now()
	c.sends = 0
	if rs.recover {
		c.send(rs.d.steer(c.srv))
	} else {
		c.send(c.srv)
	}
}

// send transmits one attempt of the current call; under recovery its
// timeout is armed first.
func (c *webConn) send(srv *WebServer) {
	rs := c.rs
	d := rs.d
	c.sends++
	c.gen++
	c.target = srv
	if rs.recover {
		if rs.budgeted && c.sends == 1 {
			d.run.budget.deposit()
		}
		c.timer = rs.timeouts.After(rs.cfg.RequestTimeout, c.timedOutFn)
	}
	d.request(c.client, srv, rs.cfg.ImageFrac, c.gen, c.replyFn)
}

// replied runs when a reply or a 500 reaches the client; one to an
// abandoned attempt is ignored.
func (c *webConn) replied(stamp uint64, ok bool) {
	if stamp == c.gen {
		c.timer.Cancel()
		c.settle(ok)
	}
}

// timedOut abandons the current attempt and retries it after capped
// exponential backoff, unless the retry limit or the retry budget — which
// keeps a crash under peak from amplifying into a storm — fails the call.
func (c *webConn) timedOut() {
	rs := c.rs
	// The retry limit and the backoff exponent count an abandoned attempt
	// twice, numbering successive attempts 1, 3, 5, …
	id := 2*c.sends - 1
	c.gen++
	if rs.inWindow() {
		rs.res.Timeouts++
	}
	if id > rs.cfg.MaxRetries {
		c.settle(false)
		return
	}
	if rs.budgeted && !rs.d.run.budget.spend() {
		if rs.inWindow() {
			rs.res.RetryDenied++
		}
		c.settle(false)
		return
	}
	if rs.inWindow() {
		rs.res.Retries++
	}
	rs.d.Eng.After(rs.cfg.RetryBase*float64(uint(1)<<uint(min(id-1, 3))), c.retryFn)
}

// retry resends the abandoned attempt, steered to a live server.
func (c *webConn) retry() { c.send(c.rs.d.steer(c.target)) }

// settle books the call's outcome — its response time, for the first call
// the setup-plus-first-reply delay of Figs 10–11, and under recovery its
// transmissions — and moves on.
func (c *webConn) settle(ok bool) {
	rs := c.rs
	now := rs.d.Eng.Now()
	delay := float64(now - c.reqStart)
	rs.d.noteSettled(ok, delay)
	if rs.inWindow() {
		if ok {
			rs.served++
			rs.res.Latency.Add(delay)
			if c.call == 1 {
				rs.res.ConnDelays.Add(float64(now - c.connStart))
			}
		} else {
			rs.errored++
		}
		if rs.recover {
			rs.res.Attempts += int64(c.sends)
		}
	}
	c.nextCall()
}
