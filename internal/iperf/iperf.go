// Package iperf provides an iperf3-like traffic generator over the testbed
// TCP stack: fixed-size bulk transfers with optional target-bandwidth
// pacing (iperf3's -b flag) and a summary report matching the fields the
// paper's experiment scripts consume (bytes, seconds, bits/second,
// retransmits).
package iperf

import (
	"errors"
	"fmt"

	"greenenvy/internal/cca"
	"greenenvy/internal/energy"
	"greenenvy/internal/netsim"
	"greenenvy/internal/sim"
	"greenenvy/internal/tcp"
)

// Spec describes one client invocation.
type Spec struct {
	// Flow is the flow identifier (unique per testbed run).
	Flow netsim.FlowID
	// Bytes is the transfer size (iperf3 -n).
	Bytes uint64
	// CCA names the congestion control algorithm (iperf3 -C).
	CCA string
	// TargetBps, when positive, paces the client at this bitrate
	// (iperf3 -b).
	TargetBps int64
	// Config carries TCP tunables (MTU, timers). Zero-value fields are
	// filled from tcp.DefaultConfig.
	Config tcp.Config
	// StartAt delays the client's start relative to run begin.
	StartAt sim.Time
	// Duration, when positive, stops the transfer that long after the
	// client actually starts (iperf3 -t): unsent data is trimmed at the
	// stop instant and the flow completes once everything already in
	// flight is acknowledged. Combines with Bytes — whichever limit is
	// reached first ends the transfer.
	Duration sim.Duration
	// NoIntervals has no effect: clients record no per-interval
	// statistics, only the summary Report. It remains so that callers
	// written when it disabled them still compile.
	NoIntervals bool
}

// Report is the client-side summary, like iperf3's closing JSON.
type Report struct {
	Flow        netsim.FlowID
	CCA         string
	MTU         int
	Bytes       uint64
	Start       sim.Time
	End         sim.Time
	Seconds     float64
	Bps         float64
	Retransmits uint64
	Timeouts    uint64
	DataSent    uint64
}

// String formats the summary like an iperf3 closing line.
func (r Report) String() string {
	return fmt.Sprintf("[%3d] 0.00-%.2f sec  %d bytes  %.2f Gbits/sec  %d retrans  (%s, mtu %d)",
		r.Flow, r.Seconds, r.Bytes, r.Bps/1e9, r.Retransmits, r.CCA, r.MTU)
}

// Client is one sender application instance. It holds its flow's TCP
// endpoints by value, so a client, its sender and its receiver, with the
// first arrays of their scoreboards, are one object.
type Client struct {
	spec     Spec
	sender   tcp.Sender
	receiver tcp.Receiver

	done bool
	// after is the client this one starts behind (StartAfter). Start
	// queues the client on after's chain, threaded through next, and
	// after's completion starts the chain in Start order.
	after, chain, next *Client
	// starter fires the client's start; stopper is its Duration time
	// limit, stopped when the transfer completes first (and on Reset, so a
	// pooled client never inherits a stale stop).
	starter, stopper sim.Timer[Client]
	// onDone lists the completion hooks in registration order. Its first
	// backing array is hooks, so registering the few hooks a run gives a
	// client allocates nothing.
	onDone []func(*Client)
	hooks  [4]func(*Client)
}

// NewClient wires a client on srcHost sending to dstHost. The endpoints
// copy the energy accounts; nil ones report nothing. The client does not
// start until Start (or StartAt elapses after StartAll).
func NewClient(engine *sim.Engine, spec Spec, srcHost, dstHost *netsim.Host, srcAccount, dstAccount *energy.Account) (*Client, error) {
	cfg := fillConfig(spec.Config)
	cc, err := cca.New(spec.CCA)
	if err != nil {
		return nil, err
	}
	if spec.Bytes == 0 {
		return nil, fmt.Errorf("iperf: zero-byte transfer for flow %d", spec.Flow)
	}
	if spec.TargetBps > 0 {
		cfg.RateLimitBps = spec.TargetBps
	}
	spec.Config = cfg

	c := &Client{spec: spec}
	c.onDone = c.hooks[:0]
	c.starter.Init(engine, c, (*Client).startNow)
	c.stopper.Init(engine, c, (*Client).stop)
	c.receiver.Init(engine, dstHost, spec.Flow, srcHost.ID, cfg, cc.ECNCapable(), account(dstAccount))
	c.sender.Init(engine, srcHost, spec.Flow, dstHost.ID, spec.Bytes, cc, cfg, account(srcAccount))
	c.sender.OnComplete = (*completion)(c)
	return c, nil
}

// account is the copy of a that an endpoint keeps: the zero account for nil.
func account(a *energy.Account) energy.Account {
	if a == nil {
		return energy.Account{}
	}
	return *a
}

// completion is the client as its sender sees it: the receiver of the
// transfer's completion. Converting the client's pointer to it allocates
// nothing, unlike the method value c.finish.
type completion Client

// TransferComplete implements tcp.Completer.
func (d *completion) TransferComplete() { (*Client)(d).finish() }

// errResetZeroByte is Reset's zero-byte error, package-level so the
// hot-path Reset does not format an error string per flow.
var errResetZeroByte = errors.New("iperf: zero-byte transfer")

// Reset rebinds a completed (or never-started) client to a new transfer,
// reusing its TCP sender and receiver — their timers, handlers, and
// scoreboard backing arrays — and, when the algorithm name is unchanged,
// restarting the congestion controller in place instead of constructing a
// fresh one. This is the pooled flow lifecycle's setup path: after pool
// warm-up it performs no allocations. OnDone hooks and StartAfter chains
// are cleared.
func (c *Client) Reset(spec Spec, srcHost, dstHost *netsim.Host, srcAccount, dstAccount *energy.Account) error {
	if spec.Bytes == 0 {
		return errResetZeroByte
	}
	cfg := fillConfig(spec.Config)
	if spec.TargetBps > 0 {
		cfg.RateLimitBps = spec.TargetBps
	}
	spec.Config = cfg

	cc := c.sender.CC()
	if cc.Name() == spec.CCA {
		cc.Restart()
	} else {
		fresh, err := cca.New(spec.CCA)
		if err != nil {
			return err
		}
		cc = fresh
	}

	c.spec = spec
	c.receiver.Reset(dstHost, spec.Flow, srcHost.ID, cfg, cc.ECNCapable(), account(dstAccount))
	c.sender.Reset(srcHost, spec.Flow, dstHost.ID, spec.Bytes, cc, cfg, account(srcAccount))
	c.done = false
	c.after, c.chain, c.next = nil, nil, nil
	c.stopper.Stop()
	c.onDone = c.onDone[:0]
	return nil
}

// Quiescent reports whether the client's receiver has drained its
// serialized receive path; only quiescent clients may be pooled.
func (c *Client) Quiescent() bool { return c.receiver.Quiescent() }

func fillConfig(cfg tcp.Config) tcp.Config {
	def := tcp.DefaultConfig()
	if cfg.MTU == 0 {
		cfg.MTU = def.MTU
	}
	if cfg.MinRTO == 0 {
		cfg.MinRTO = def.MinRTO
	}
	if cfg.ReorderSegs == 0 {
		cfg.ReorderSegs = def.ReorderSegs
	}
	if cfg.RxPathCost == 0 {
		// A negative value disables the receive-path model explicitly.
		cfg.RxPathCost = def.RxPathCost
	}
	if cfg.RxRingPackets == 0 {
		cfg.RxRingPackets = def.RxRingPackets
	}
	return cfg
}

// StartAfter chains this client behind prev: it starts (plus its StartAt
// offset) when prev completes — the "full speed, then idle" serial
// schedule. It must be called before Start.
func (c *Client) StartAfter(prev *Client) { c.after = prev }

// OnDone registers f to run with the client when its transfer completes.
// Hooks run in registration order.
func (c *Client) OnDone(f func(*Client)) { c.onDone = append(c.onDone, f) }

// Flow returns the client's flow identifier.
func (c *Client) Flow() netsim.FlowID { return c.spec.Flow }

// Start schedules the client: at its StartAt offset from now, or — if
// chained with StartAfter — at StartAt after its predecessor completes.
// A chained client queues on its predecessor's chain and registers a hook
// there that starts the chain's head, so each chained start runs where its
// hook was registered, as the client's own hook would.
func (c *Client) Start() {
	p := c.after
	if p == nil {
		c.armStart()
		return
	}
	tail := &p.chain
	for *tail != nil {
		tail = &(*tail).next
	}
	*tail = c
	p.OnDone((*Client).startChained)
}

// startChained starts the head of the clients chained behind c.
func (c *Client) startChained() {
	head := c.chain
	c.chain, head.next = head.next, nil
	head.armStart()
}

// armStart schedules the start StartAt from now.
func (c *Client) armStart() { c.starter.Reset(c.spec.StartAt) }

func (c *Client) startNow() {
	c.sender.Start()
	if c.spec.Duration > 0 {
		c.stopper.Reset(c.spec.Duration)
	}
}

// stop ends the transfer at its Duration limit.
func (c *Client) stop() { c.sender.Finish() }

func (c *Client) finish() {
	c.stopper.Stop()
	c.done = true
	for _, f := range c.onDone {
		f(c)
	}
}

// Done reports whether the transfer completed.
func (c *Client) Done() bool { return c.done }

// Sender exposes the underlying TCP sender.
func (c *Client) Sender() *tcp.Sender { return &c.sender }

// Receiver exposes the underlying TCP receiver.
func (c *Client) Receiver() *tcp.Receiver { return &c.receiver }

// Report builds the summary (valid any time; final once Done).
func (c *Client) Report() Report {
	s := &c.sender
	r := Report{
		Flow:        c.spec.Flow,
		CCA:         c.spec.CCA,
		MTU:         c.spec.Config.MTU,
		Bytes:       c.receiver.TotalReceived,
		Start:       s.StartedAt,
		End:         s.CompletedAt,
		Retransmits: s.Retransmits,
		Timeouts:    s.Timeouts,
		DataSent:    s.DataSent,
	}
	if s.Done() {
		r.Seconds = s.FCT().Seconds()
		if r.Seconds > 0 {
			r.Bps = float64(r.Bytes) * 8 / r.Seconds
		}
	}
	return r
}
