package controller

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"dpiservice/internal/ctlproto"
)

// RetryPolicy bounds the client's retransmission of idempotent
// requests: exponential backoff from Base doubling up to Max, with up
// to half a step of random jitter so a controller restart is not hit by
// a synchronized thundering herd of middleboxes.
type RetryPolicy struct {
	// Attempts is the total number of tries (1 = no retry).
	Attempts int
	// Base is the delay before the first retry; each further retry
	// doubles it, capped at Max.
	Base time.Duration
	Max  time.Duration
}

// DefaultRetryPolicy retries transient transport failures three times
// over roughly half a second.
var DefaultRetryPolicy = RetryPolicy{Attempts: 4, Base: 50 * time.Millisecond, Max: 1 * time.Second}

// backoff returns the sleep before retry i (0-based), jittered.
func (p RetryPolicy) backoff(i int, rng *rand.Rand) time.Duration {
	d := p.Base << uint(i)
	if d > p.Max || d <= 0 {
		d = p.Max
	}
	if rng != nil && d > 1 {
		d += time.Duration(rng.Int63n(int64(d / 2)))
	}
	return d
}

// rejectionError marks a reply the controller deliberately refused
// (ctlproto.TypeError). Rejections are deterministic — retrying the
// same request yields the same answer — so the retry loop passes them
// through.
type rejectionError struct{ reason string }

func (e *rejectionError) Error() string { return e.reason }

// IsRejection reports whether err is a controller-side rejection rather
// than a transport failure.
func IsRejection(err error) bool {
	var rej *rejectionError
	return errors.As(err, &rej)
}

// IsLeaseExpired reports whether err is the controller refusing a lease
// renewal because the instance was already declared dead; the instance
// must re-hello to rejoin.
func IsLeaseExpired(err error) bool {
	return IsRejection(err) && strings.Contains(err.Error(), "lease expired")
}

// Client is the middlebox/instance-side handle to the DPI controller: a
// synchronous request/response wrapper over one control connection.
// Every call is bounded by its context, and idempotent requests
// (registration, pattern updates, hello, telemetry, lease renewal) are
// retried with backoff across redials when the transport fails. A
// Client serializes its calls internally and is safe for concurrent
// use.
type Client struct {
	mu    sync.Mutex
	conn  net.Conn
	seq   uint64
	addr  string // non-empty when Dial created the client; enables redial
	retry RetryPolicy
	rng   *rand.Rand
}

// Dial connects to a controller at addr (TCP). Clients created this way
// redial on retry after a transport failure.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := NewClient(conn)
	c.addr = addr
	return c, nil
}

// NewClient wraps an established control connection. Without a dial
// address the client cannot redial, so transport failures are returned
// after the first attempt.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn:  conn,
		retry: DefaultRetryPolicy,
		rng:   rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// SetRetryPolicy replaces the retry policy (tests use a fast one).
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retry = p
}

// Close closes the control connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// roundTrip sends one request and reads its reply on the current
// connection. Caller holds c.mu.
func (c *Client) roundTrip(ctx context.Context, typ ctlproto.MsgType, body any) (*ctlproto.Envelope, error) {
	c.seq++
	if err := ctlproto.WriteMsgCtx(ctx, c.conn, typ, c.seq, body); err != nil {
		return nil, err
	}
	env, err := ctlproto.ReadMsgCtx(ctx, c.conn)
	if err != nil {
		return nil, err
	}
	if env.Type == ctlproto.TypeError {
		var e ctlproto.Error
		if err := env.Decode(&e); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("controller rejected %s: %w", typ, &rejectionError{reason: e.Reason})
	}
	if env.Seq != c.seq {
		return nil, fmt.Errorf("controller: reply seq %d for request %d", env.Seq, c.seq)
	}
	return env, nil
}

// call runs one request with the client's retry policy. Only idempotent
// requests retry: after a transport failure mid-exchange the client
// cannot know whether the controller applied the request, so a
// non-idempotent one must surface the error instead of risking a double
// apply. A retry closes the broken connection and redials (framing
// state after a partial exchange is unrecoverable), which requires a
// dial address; clients wrapping a caller-owned connection do not
// retry.
func (c *Client) call(ctx context.Context, typ ctlproto.MsgType, body any, idempotent bool) (*ctlproto.Envelope, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	attempts := c.retry.Attempts
	if !idempotent || c.addr == "" || attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			c.conn.Close()
			t := time.NewTimer(c.retry.backoff(i-1, c.rng))
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
			conn, err := net.Dial("tcp", c.addr)
			if err != nil {
				lastErr = err
				continue
			}
			c.conn = conn
		}
		env, err := c.roundTrip(ctx, typ, body)
		if err == nil || IsRejection(err) || ctx.Err() != nil {
			return env, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// Register registers a middlebox and returns its pattern-set index. The
// controller treats re-registration with an identical body as
// idempotent, so lost-ack retries are safe.
//
//dpi:ctx
func (c *Client) Register(ctx context.Context, reg ctlproto.Register) (int, error) {
	ack, err := c.RegisterFull(ctx, reg)
	return ack.Set, err
}

// RegisterFull registers a middlebox and returns the whole ack,
// including the wire session token and cluster key a middlebox needs
// to speak the wire transport.
//
//dpi:ctx
func (c *Client) RegisterFull(ctx context.Context, reg ctlproto.Register) (ctlproto.RegisterAck, error) {
	env, err := c.call(ctx, ctlproto.TypeRegister, reg, true)
	if err != nil {
		return ctlproto.RegisterAck{}, err
	}
	if env.Type != ctlproto.TypeRegisterAck {
		return ctlproto.RegisterAck{}, errors.New("controller: unexpected reply " + string(env.Type))
	}
	var ack ctlproto.RegisterAck
	if err := env.Decode(&ack); err != nil {
		return ctlproto.RegisterAck{}, err
	}
	return ack, nil
}

// NewSession requests a wire session token for an unregistered peer (a
// traffic source or benchmark driver). Tokens are stable per peer ID,
// so retries are safe.
//
//dpi:ctx
func (c *Client) NewSession(ctx context.Context, peerID string) (uint64, error) {
	env, err := c.call(ctx, ctlproto.TypeSession, ctlproto.Session{PeerID: peerID}, true)
	if err != nil {
		return 0, err
	}
	if env.Type != ctlproto.TypeSessionAck {
		return 0, errors.New("controller: unexpected reply " + string(env.Type))
	}
	var ack ctlproto.SessionAck
	if err := env.Decode(&ack); err != nil {
		return 0, err
	}
	return ack.WireToken, nil
}

// Deregister removes a middlebox registration. Not retried: a repeat
// after a lost ack is rejected as unknown, which the caller would
// misread as failure.
//
//dpi:ctx
func (c *Client) Deregister(ctx context.Context, mboxID string) error {
	_, err := c.call(ctx, ctlproto.TypeDeregister, ctlproto.Deregister{MboxID: mboxID}, false)
	return err
}

// AddPatterns registers patterns for a middlebox. Re-adding identical
// patterns only refreshes references, so retries are safe.
//
//dpi:ctx
func (c *Client) AddPatterns(ctx context.Context, mboxID string, defs []ctlproto.PatternDef) error {
	_, err := c.call(ctx, ctlproto.TypeAddPatterns,
		ctlproto.AddPatterns{MboxID: mboxID, Patterns: defs}, true)
	return err
}

// RemovePatterns drops a middlebox's references to rule IDs. Removing
// an already-removed reference is a no-op, so retries are safe.
//
//dpi:ctx
func (c *Client) RemovePatterns(ctx context.Context, mboxID string, ruleIDs []int) error {
	_, err := c.call(ctx, ctlproto.TypeRemovePatterns,
		ctlproto.RemovePatterns{MboxID: mboxID, RuleIDs: ruleIDs}, true)
	return err
}

// ReportChains reports policy chains (as the TSA) and returns them with
// the controller-assigned tags. Not retried: each report defines new
// chains, so a blind repeat after a lost ack would duplicate them.
//
//dpi:ctx
func (c *Client) ReportChains(ctx context.Context, chains [][]string) ([]ctlproto.ChainDef, error) {
	msg := ctlproto.PolicyChains{}
	for _, members := range chains {
		msg.Chains = append(msg.Chains, ctlproto.ChainDef{Members: members})
	}
	env, err := c.call(ctx, ctlproto.TypePolicyChains, msg, false)
	if err != nil {
		return nil, err
	}
	var reply ctlproto.PolicyChains
	if err := env.Decode(&reply); err != nil {
		return nil, err
	}
	return reply.Chains, nil
}

// InstanceHello announces a DPI service instance and fetches its
// initialization. Re-helloing replaces the instance record, so retries
// are safe.
//
//dpi:ctx
func (c *Client) InstanceHello(ctx context.Context, instanceID string, chains []uint16, dedicated bool) (ctlproto.InstanceInit, error) {
	env, err := c.call(ctx, ctlproto.TypeInstanceHello,
		ctlproto.InstanceHello{InstanceID: instanceID, Chains: chains, Dedicated: dedicated}, true)
	if err != nil {
		return ctlproto.InstanceInit{}, err
	}
	if env.Type != ctlproto.TypeInstanceInit {
		return ctlproto.InstanceInit{}, errors.New("controller: unexpected reply " + string(env.Type))
	}
	return ctlproto.DecodeInstanceInit(env.Body)
}

// SendTelemetry exports an instance's counters to the controller.
// Reports are absolute snapshots, so a duplicate overwrites itself.
//
//dpi:ctx
func (c *Client) SendTelemetry(ctx context.Context, tel ctlproto.Telemetry) error {
	_, err := c.call(ctx, ctlproto.TypeTelemetry, tel, true)
	return err
}

// RenewLease renews an instance's liveness lease and returns the lease
// TTL and the controller's configuration version. A renewal is a pure
// liveness signal, so retries are safe. IsLeaseExpired distinguishes
// the rejection that demands a fresh InstanceHello.
//
//dpi:ctx
func (c *Client) RenewLease(ctx context.Context, instanceID string) (ttl time.Duration, version uint64, err error) {
	env, err := c.call(ctx, ctlproto.TypeLease, ctlproto.Lease{InstanceID: instanceID}, true)
	if err != nil {
		return 0, 0, err
	}
	if env.Type != ctlproto.TypeLeaseAck {
		return 0, 0, errors.New("controller: unexpected reply " + string(env.Type))
	}
	var ack ctlproto.LeaseAck
	if err := env.Decode(&ack); err != nil {
		return 0, 0, err
	}
	return time.Duration(ack.TTLMillis) * time.Millisecond, ack.Version, nil
}
