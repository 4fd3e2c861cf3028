package web

import "edisim/internal/sim"

// webConn is one client connection, a pooled state machine like webReq:
//
//	SYN --> refused (RST) | dropped (kernel retry schedule) | queued --> accepted --> SYN-ACK
//	established --> CallsPerConn calls, each a chain of attempts --> close
//
// RequestTimeout > 0 adds recovery as guarded steps on this one path: each
// SYN arms the kernel retransmit timer, each attempt the client timeout; a
// timed-out attempt is abandoned and retried (budget permitting) after
// capped exponential backoff; SYNs and attempts steer around dead servers
// through nextLive. At 0 no timer is armed and nothing steers.
//
// Stale outcomes (the SYN-ACK of a SYN given up on, the reply to an
// abandoned attempt, a retransmit timer outliving its SYN) are told apart
// from live ones by seq. It advances whenever the live SYN or attempt
// changes and is never reset, so it also holds across recycling. Messages
// carry the seq they were sent under (synTag, webReq); the one timer slot
// is live only while armed and not superseded by a later arming.
type webConn struct {
	d      *Deployment
	client string
	srv    *WebServer // target of the live SYN or attempt
	host   *WebServer // the server that accepted the connection; nil during the handshake
	seq    uint64

	start    sim.Time // connection start, for ConnDelays
	synRetry int      // kernel SYN retries used
	call     int      // calls issued so far
	callAt   sim.Time // current call's start
	attempts int      // attempts of the current call so far

	timer sim.EventRef // retransmit timer, then request timeout
	armed bool
	// queued is the seq of a SYN waiting in srv's accept queue, inc the
	// incarnation of srv that queued it.
	queued, inc uint64

	synFn, timerFn, retryFn, rstFn func()
	replyFn                        func(uint64, bool)
}

// synTag is one SYN in flight. It carries the client and server (a stale
// SYN is still accepted and answered) and the connection's seq at send.
type synTag struct {
	c      *webConn
	client string
	w      *WebServer
	seq    uint64

	arrivedFn, acceptedFn, ackedFn func()
}

func (c *webConn) bind(d *Deployment) {
	c.d = d
	c.synFn, c.timerFn, c.retryFn, c.rstFn = c.syn, c.timerFired, c.retry, c.fail
	c.replyFn = c.replied
}

func (t *synTag) bind(*Deployment) {
	t.arrivedFn, t.acceptedFn, t.ackedFn = t.arrived, t.accepted, t.acked
}

// fire starts one connection from the next client at the next web server of
// the routing rotation.
func (d *Deployment) fire() {
	c := take(&d.freeConns, d)
	if d.scaler != nil {
		d.ovl.winArr++
	}
	c.client = d.Clients[d.next%len(d.Clients)]
	c.srv = d.rotation[d.next%len(d.rotation)]
	d.next++
	c.start = d.Eng.Now()
	c.synRetry, c.call = 0, 0
	c.syn()
}

func (c *webConn) recycle() {
	c.srv, c.host = nil, nil
	c.d.freeConns = append(c.d.freeConns, c)
}

// recovering reports whether the run arms client timers and steers.
func (d *Deployment) recovering() bool { return d.cfg.RequestTimeout > 0 }

// steer redirects away from a dead server to the next live one in ring
// order; it returns w itself when w is up or the whole ring is down.
func (d *Deployment) steer(w *WebServer) *WebServer {
	if !w.Node.Up() {
		if nl := d.nextLive(w); nl != nil {
			return nl
		}
	}
	return w
}

func (c *webConn) arm(wait float64) {
	c.timer = c.d.Eng.After(wait, c.timerFn)
	c.armed = true
}

// timerFired runs the retransmit timeout during the handshake and the
// request timeout after it; a superseded or invalidated timer does nothing.
// A SYN waiting in the accept queue of a live server has been answered (real
// TCP sends the SYN-ACK before accept()), so it is not retransmitted; the
// timer is re-armed in case the server crashes before accepting it.
func (c *webConn) timerFired() {
	if c.timer.Active() || !c.armed {
		return
	}
	c.armed = false
	switch {
	case c.host != nil:
		c.timedOut()
	case c.queued == c.seq && c.srv.Node.Up() && c.srv.Node.Incarnation() == c.inc:
		backoff := c.d.Params.RetryBackoff
		c.arm(backoff[min(c.synRetry, len(backoff)-1)])
	default:
		c.dropped()
	}
}

// syn sends the connection's next SYN. Under recovery it steers to a live
// server first (failing when the whole tier is down) and arms the
// retransmit timer at the backoff schedule's current step: a SYN or SYN-ACK
// lost to a cut link gets no other feedback.
func (c *webConn) syn() {
	d := c.d
	if d.recovering() {
		if c.srv = d.steer(c.srv); !c.srv.Node.Up() {
			c.fail()
			return
		}
	}
	c.seq++
	t := take(&d.freeSyns, d)
	t.c, t.client, t.w, t.seq = c, c.client, c.srv, c.seq
	d.Fab.Send(c.client, c.srv.Node.ID, rpcHeaderBytes, t.arrivedFn)
	if d.recovering() {
		backoff := d.Params.RetryBackoff
		c.arm(backoff[min(c.synRetry, len(backoff)-1)])
	}
}

func (t *synTag) recycle() {
	d := t.c.d
	t.c, t.w = nil, nil
	d.freeSyns = append(d.freeSyns, t)
}

// arrived runs when the SYN reaches the server: refused outright (an RST,
// so the client gives up at once instead of feeding the backlog), queued
// for accept, or dropped.
func (t *synTag) arrived() {
	c, w := t.c, t.w
	if t.seq != c.seq {
		t.recycle()
		return
	}
	if w.refuseConn() {
		t.recycle()
		c.seq++
		c.armed = false
		c.d.noteShed()
		c.d.Fab.Send(w.Node.ID, c.client, rpcHeaderBytes, c.rstFn)
		return
	}
	if !w.admitConn(t.acceptedFn) {
		t.recycle()
		c.dropped()
		return
	}
	c.queued, c.inc = c.seq, w.Node.Incarnation()
}

func (t *synTag) accepted() {
	if t.seq == t.c.seq {
		t.c.queued = 0
	}
	t.w.accept()
	t.c.d.Fab.Send(t.w.Node.ID, t.client, rpcHeaderBytes, t.ackedFn)
}

// acked runs when the SYN-ACK reaches the client: the calls begin.
func (t *synTag) acked() {
	c, w, live := t.c, t.w, t.seq == t.c.seq
	t.recycle()
	if live {
		c.armed = false
		c.host = w
		c.nextCall()
	}
}

// dropped handles a SYN lost to a full backlog, a dead host or the
// retransmit timeout: retry on the kernel schedule, then give up.
func (c *webConn) dropped() {
	c.seq++
	c.armed = false
	backoff := c.d.Params.RetryBackoff
	if c.synRetry < len(backoff) {
		c.synRetry++
		c.d.Eng.After(backoff[c.synRetry-1], c.synFn)
		return
	}
	c.fail()
}

// fail accounts a connection that was refused or ran out of SYN retries.
func (c *webConn) fail() {
	d := c.d
	d.ovl.winOps++
	if d.inWindow() {
		d.res.ConnFailures++
		if d.cfg.Profile == nil {
			d.res.ConnDelays.Add(float64(d.Eng.Now() - c.start))
		}
	}
	c.recycle()
}

// nextCall issues the next call, or closes the connection after
// CallsPerConn.
func (c *webConn) nextCall() {
	d := c.d
	if c.call >= d.cfg.CallsPerConn {
		c.host.closeConn()
		c.recycle()
		return
	}
	c.call++
	c.callAt = d.Eng.Now()
	c.attempts = 0
	srv := c.host
	if d.recovering() {
		srv = d.steer(srv)
	}
	c.try(srv)
}

// try transmits one attempt of the current call to srv.
func (c *webConn) try(srv *WebServer) {
	d := c.d
	c.attempts++
	c.seq++
	c.srv = srv
	if d.recovering() {
		if d.cfg.RetryBudget > 0 && c.attempts == 1 {
			d.budget.deposit()
		}
		c.arm(d.cfg.RequestTimeout)
	}
	d.request(c.client, srv, d.cfg.ImageFrac, c.seq, c.replyFn)
}

// replied runs when an attempt's reply (or 500) arrives; replies to
// abandoned attempts are ignored.
func (c *webConn) replied(seq uint64, ok bool) {
	if seq != c.seq {
		return
	}
	if c.armed {
		c.timer.Cancel()
		c.armed = false
	}
	c.settle(ok)
}

// timedOut abandons the live attempt and retries after capped exponential
// backoff, unless the call is out of retries or the budget denies one.
func (c *webConn) timedOut() {
	d := c.d
	// MaxRetries and the backoff exponent see attempt k as number 2k-1:
	// the attempt number has always advanced on abandonment as well.
	id := 2*c.attempts - 1
	c.seq++
	win := d.inWindow()
	if win {
		d.res.Timeouts++
	}
	if id > d.cfg.MaxRetries {
		c.settle(false)
		return
	}
	// The retry budget keeps a crash under peak from amplifying into a
	// storm: no token, no retry — the operation fails fast instead.
	if d.cfg.RetryBudget > 0 && !d.budget.spend() {
		if win {
			d.res.RetryDenied++
		}
		c.settle(false)
		return
	}
	d.Eng.After(d.cfg.RetryBase*float64(uint(1)<<uint(min(id-1, 3))), c.retryFn)
}

func (c *webConn) retry() { c.try(c.d.steer(c.srv)) }

// settle closes the current call's books and moves on. Response time runs
// from the call's first attempt; the first call also records connection
// setup + first-byte delay (the python-logger view of Figs 10–11). Under
// recovery the call's attempts and retries are counted here, gated by the
// window like its outcome.
func (c *webConn) settle(ok bool) {
	d := c.d
	now := d.Eng.Now()
	delay := float64(now - c.callAt)
	d.noteSettled(ok, delay)
	if d.inWindow() {
		if d.recovering() {
			d.res.Attempts += int64(c.attempts)
			d.res.Retries += int64(c.attempts - 1)
		}
		if !ok {
			d.res.Errors500++
		} else {
			d.served++
			d.res.Latency.Add(delay)
			if d.cfg.Profile == nil {
				d.res.Delays.Add(delay)
				if c.call == 1 {
					d.res.ConnDelays.Add(float64(now - c.start))
				}
			}
		}
	}
	c.nextCall()
}
