// Package ctlproto defines the JSON control protocol between
// middleboxes, the DPI controller and DPI service instances
// (Section 4.1 of the paper): registration (including pattern-set
// inheritance and the read-only and stateful flags), pattern add/remove,
// policy-chain distribution, instance initialization, telemetry export
// and flow-migration directives (Sections 4.3 and 4.3.1).
//
// Messages travel as length-prefixed envelopes over a direct (possibly
// secured) connection. Every envelope is JSON except instance_init's,
// whose body is the binary encoding of initcodec.go (WriteBinary).
package ctlproto

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
)

// MsgType discriminates envelope payloads.
type MsgType string

// Protocol message types.
const (
	TypeRegister       MsgType = "register"
	TypeRegisterAck    MsgType = "register_ack"
	TypeDeregister     MsgType = "deregister"
	TypeAddPatterns    MsgType = "add_patterns"
	TypeRemovePatterns MsgType = "remove_patterns"
	TypePolicyChains   MsgType = "policy_chains"
	TypeInstanceHello  MsgType = "instance_hello"
	TypeInstanceInit   MsgType = "instance_init"
	TypeTelemetry      MsgType = "telemetry"
	TypeLease          MsgType = "lease"
	TypeLeaseAck       MsgType = "lease_ack"
	TypeSession        MsgType = "session"
	TypeSessionAck     MsgType = "session_ack"
	TypeMigrateFlows   MsgType = "migrate_flows"
	TypeAck            MsgType = "ack"
	TypeError          MsgType = "error"
)

// Envelope frames every message. Body is the JSON body, or a binary
// message's raw bytes (see WriteBinary).
type Envelope struct {
	Type MsgType         `json:"type"`
	Seq  uint64          `json:"seq"`
	Body json.RawMessage `json:"body,omitempty"`
}

// Register is sent by a middlebox to join the DPI service. The
// middlebox's unique ID and the controller address are preconfigured
// (the paper deploys no bootstrap procedure).
type Register struct {
	// MboxID is the middlebox's preconfigured unique identifier.
	MboxID string `json:"mbox_id"`
	// Name is the human-readable middlebox name.
	Name string `json:"name"`
	// Type is the middlebox type (ids, av, l7fw, shaper, lb, dlp, ...);
	// middleboxes of one type share a pattern-set identifier.
	Type string `json:"mbox_type"`
	// Stateful requests scan state maintained across the packets of a
	// flow.
	Stateful bool `json:"stateful,omitempty"`
	// ReadOnly declares that the middlebox needs only pattern-match
	// results, not the packets themselves.
	ReadOnly bool `json:"read_only,omitempty"`
	// StopAfter is the middlebox's stopping condition in bytes of L7
	// payload; 0 means unlimited.
	StopAfter int `json:"stop_after,omitempty"`
	// InheritFrom names an already-registered middlebox whose pattern
	// set this one adopts.
	InheritFrom string `json:"inherit_from,omitempty"`
	// FailMode declares how the middlebox degrades when DPI results
	// stop arriving (a dead or partitioned instance): FailOpen forwards
	// traffic unscanned, FailClosed drops it. Empty selects
	// DefaultFailMode for the middlebox's read-only flag.
	FailMode string `json:"fail_mode,omitempty"`
}

// Degraded-mode policies for Register.FailMode.
const (
	// FailOpen passes traffic unscanned while DPI results are missing —
	// acceptable for monitoring-only middleboxes (IDS).
	FailOpen = "fail-open"
	// FailClosed drops traffic while DPI results are missing — the safe
	// default for enforcing middleboxes (IPS, AV, L7 firewall), which
	// must not let unscanned traffic through.
	FailClosed = "fail-closed"
)

// DefaultFailMode selects the degraded-mode policy for a middlebox that
// did not declare one: read-only (monitoring) middleboxes fail open,
// enforcing middleboxes fail closed.
func DefaultFailMode(readOnly bool) string {
	if readOnly {
		return FailOpen
	}
	return FailClosed
}

// Deregister removes a middlebox; its pattern references are dropped
// and shared patterns survive only while other middleboxes reference
// them (Section 4.1).
type Deregister struct {
	MboxID string `json:"mbox_id"`
}

// RegisterAck acknowledges a registration.
type RegisterAck struct {
	MboxID string `json:"mbox_id"`
	// Set is the pattern-set index assigned by the controller; match
	// report sections for this middlebox carry it.
	Set int `json:"set"`
	// WireToken is the controller-issued session token the middlebox
	// presents when dialing wire-transport servers (DPI instances).
	WireToken uint64 `json:"wire_token,omitempty"`
	// WireKey is the cluster key for validating wire session tokens; a
	// middlebox that runs its own wire server (a verdict consumer)
	// needs it to authenticate connecting instances.
	WireKey uint64 `json:"wire_key,omitempty"`
}

// PatternDef describes one pattern in add messages and InstanceInit.
// Content is base64 in JSON (encoding/json's []byte rule) because
// patterns may be arbitrary binary.
type PatternDef struct {
	// RuleID is the pattern's identifier within the middlebox's rule
	// set, echoed back in match reports.
	RuleID  int    `json:"rule_id"`
	Content []byte `json:"content,omitempty"`
	// Regex, when set, carries a regular expression instead of exact
	// bytes.
	Regex string `json:"regex,omitempty"`
	// Modifiers qualify Content; a regex takes none.
	Modifiers
}

// Modifiers are Snort's content modifiers, as patterns.Pattern carries
// them: NoCase matches ASCII letters in either case, and the content
// must begin at or after byte Offset and, when Depth > 0, end within
// Offset+Depth bytes of the payload (of the stream, for a stateful
// middlebox).
type Modifiers struct {
	NoCase bool `json:"nocase,omitempty"`
	Offset int  `json:"offset,omitempty"`
	Depth  int  `json:"depth,omitempty"`
}

// AddPatterns adds patterns to the sender's set.
type AddPatterns struct {
	MboxID   string       `json:"mbox_id"`
	Patterns []PatternDef `json:"patterns"`
}

// RemovePatterns removes the sender's reference to the given rule IDs.
// A pattern shared with other middleboxes survives until its last
// reference is removed (Section 4.1).
type RemovePatterns struct {
	MboxID  string `json:"mbox_id"`
	RuleIDs []int  `json:"rule_ids"`
}

// ChainDef is one policy chain as the TSA reports it.
type ChainDef struct {
	// Tag is the chain identifier pushed onto packets (VLAN/MPLS).
	Tag uint16 `json:"tag"`
	// Members are middlebox IDs in traversal order.
	Members []string `json:"members"`
}

// PolicyChains distributes the current chain set (TSA to controller, or
// controller to instances).
type PolicyChains struct {
	Chains []ChainDef `json:"chains"`
}

// ProfileDef carries one pattern-set profile in InstanceInit. Mboxes
// lists the registered middlebox IDs sharing the set, so chain member
// references resolve on the instance side.
type ProfileDef struct {
	Set       int
	Mboxes    []string
	Name      string
	Stateful  bool
	ReadOnly  bool
	StopAfter int
	Patterns  []PatternDef
}

// InstanceHello is sent by a starting DPI service instance to request
// its initialization. Empty Chains asks to serve every chain.
type InstanceHello struct {
	InstanceID string   `json:"instance_id"`
	Chains     []uint16 `json:"chains,omitempty"`
	// Dedicated marks an MCA² dedicated instance; the controller
	// configures it with the compact automaton (Section 4.3.1).
	Dedicated bool `json:"dedicated,omitempty"`
}

// InstanceInit initializes a DPI service instance with the pattern sets
// and chain mapping it must serve (Section 5.1). Compact selects the
// low-memory automaton used for MCA² dedicated instances. It travels in
// the binary encoding of AppendInstanceInit, not as JSON.
type InstanceInit struct {
	InstanceID string
	Profiles   []ProfileDef
	Chains     []ChainDef
	Compact    bool
	// Version is the controller's configuration version the message
	// was derived from; an instance re-requesting its configuration
	// can skip rebuilding when it is unchanged.
	Version uint64
	// WireKey is the cluster key the instance's wire-transport server
	// uses to validate session tokens on incoming data frames.
	WireKey uint64
	// WireToken is the instance's own session token, presented when it
	// dials middlebox verdict consumers over the wire transport.
	WireToken uint64
}

// FlowKey identifies one flow in telemetry and migration messages.
type FlowKey struct {
	Src      string `json:"src"`
	Dst      string `json:"dst"`
	SrcPort  uint16 `json:"src_port"`
	DstPort  uint16 `json:"dst_port"`
	Protocol uint8  `json:"protocol"`
}

// FlowTelemetry is per-flow load data.
type FlowTelemetry struct {
	Flow    FlowKey `json:"flow"`
	Bytes   uint64  `json:"bytes"`
	Matches uint64  `json:"matches"`
}

// Telemetry is the periodic instance report the controller's stress
// monitor consumes (Section 4.3.1).
type Telemetry struct {
	InstanceID   string          `json:"instance_id"`
	Packets      uint64          `json:"packets"`
	Bytes        uint64          `json:"bytes"`
	BytesScanned uint64          `json:"bytes_scanned"`
	Matches      uint64          `json:"matches"`
	HeavyFlows   []FlowTelemetry `json:"heavy_flows,omitempty"`
}

// Lease renews a DPI service instance's liveness lease with the
// controller. An instance that misses renewals is marked Suspect and
// then Dead, at which point the controller re-steers its chains to
// surviving instances (Section 4.3's failure handling).
type Lease struct {
	InstanceID string `json:"instance_id"`
}

// LeaseAck acknowledges a lease renewal, telling the instance how long
// the lease is valid and the controller's current configuration version
// (so a lagging instance knows to re-request its configuration).
type LeaseAck struct {
	InstanceID string `json:"instance_id"`
	// TTLMillis is the lease duration in milliseconds; the instance
	// should renew well within it (the daemons renew at TTL/3).
	TTLMillis int64  `json:"ttl_ms"`
	Version   uint64 `json:"version"`
}

// Session requests a wire-transport session token for a peer that is
// neither a registered middlebox nor a DPI instance (a traffic source,
// a benchmark driver). Tokens are stable per peer ID, so lost-ack
// retries are safe.
type Session struct {
	PeerID string `json:"peer_id"`
}

// SessionAck carries the issued token back.
type SessionAck struct {
	PeerID    string `json:"peer_id"`
	WireToken uint64 `json:"wire_token"`
}

// MigrateFlows instructs an instance to hand the given flows to another
// instance; the source buffers the flows' packets until migration
// completes (Section 4.3).
type MigrateFlows struct {
	Flows     []FlowKey `json:"flows"`
	TargetID  string    `json:"target_id"`
	Dedicated bool      `json:"dedicated,omitempty"`
}

// Ack acknowledges the message with the given sequence number.
type Ack struct {
	AckSeq uint64 `json:"ack_seq"`
}

// Error reports a protocol-level failure.
type Error struct {
	AckSeq uint64 `json:"ack_seq"`
	Reason string `json:"reason"`
}

// MaxMessageLen bounds a framed message; registration of the largest
// real pattern set (ClamAV, ~5 MB raw per the paper) fits with room to
// spare.
const MaxMessageLen = 64 << 20

// Frame errors.
var (
	ErrMessageTooLarge = errors.New("ctlproto: message exceeds MaxMessageLen")
	ErrBadEnvelope     = errors.New("ctlproto: malformed envelope")
)

// WriteMsg frames and writes an envelope carrying body.
func WriteMsg(w io.Writer, typ MsgType, seq uint64, body any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("ctlproto: marshal %s: %w", typ, err)
	}
	env, err := json.Marshal(Envelope{Type: typ, Seq: seq, Body: raw})
	if err != nil {
		return fmt.Errorf("ctlproto: marshal envelope: %w", err)
	}
	if len(env) > MaxMessageLen {
		return ErrMessageTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(env)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(env); err != nil {
		return err
	}
	if m := wireMet.Load(); m != nil {
		m.msgsWritten.Inc()
		m.bytesWritten.Add(uint64(len(hdr) + len(env)))
		m.countMsg(typ)
	}
	return nil
}

// binaryMark opens a framed message whose body is binary. A JSON
// envelope starts with '{', so the first byte tells the two apart. The
// binary envelope is the mark, the type (one length byte and the
// name), the seq (uint64 big-endian) and the body.
const binaryMark = 0

// WriteBinary frames and writes a message whose body is raw bytes, the
// concatenation of parts. The parts go out as they are, in one writev
// on a socket: a body of a cached part and a fresh one is never copied
// into one buffer.
func WriteBinary(w io.Writer, typ MsgType, seq uint64, parts ...[]byte) error {
	if len(typ) > 255 {
		return fmt.Errorf("ctlproto: message type %q too long", typ)
	}
	env := 2 + len(typ) + 8
	for _, p := range parts {
		env += len(p)
	}
	if env > MaxMessageLen {
		return ErrMessageTooLarge
	}
	hdr := make([]byte, 0, 4+2+len(typ)+8)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(env))
	hdr = append(hdr, binaryMark, byte(len(typ)))
	hdr = append(hdr, typ...)
	hdr = binary.BigEndian.AppendUint64(hdr, seq)
	bufs := append(net.Buffers{hdr}, parts...)
	if _, err := bufs.WriteTo(w); err != nil {
		return err
	}
	if m := wireMet.Load(); m != nil {
		m.msgsWritten.Inc()
		m.bytesWritten.Add(uint64(4 + env))
		m.countMsg(typ)
	}
	return nil
}

// parseBinary splits a binary envelope; Body aliases buf.
func parseBinary(buf []byte) (*Envelope, error) {
	if len(buf) < 2 || len(buf) < 2+int(buf[1])+8 {
		return nil, ErrBadEnvelope
	}
	n := int(buf[1])
	return &Envelope{
		Type: MsgType(buf[2 : 2+n]),
		Seq:  binary.BigEndian.Uint64(buf[2+n:]),
		Body: buf[2+n+8:],
	}, nil
}

// ReadMsg reads one framed envelope, JSON or binary.
func ReadMsg(r io.Reader) (*Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxMessageLen {
		return nil, ErrMessageTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	var env *Envelope
	if len(buf) > 0 && buf[0] == binaryMark {
		var err error
		if env, err = parseBinary(buf); err != nil {
			return nil, err
		}
	} else {
		env = new(Envelope)
		if err := json.Unmarshal(buf, env); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
		}
	}
	if env.Type == "" {
		return nil, ErrBadEnvelope
	}
	if m := wireMet.Load(); m != nil {
		m.msgsRead.Inc()
		m.bytesRead.Add(uint64(len(hdr)) + uint64(n))
		m.countMsg(env.Type)
	}
	return env, nil
}

// Decode unmarshals the envelope body into dst.
func (e *Envelope) Decode(dst any) error {
	if err := json.Unmarshal(e.Body, dst); err != nil {
		return fmt.Errorf("%w: body of %s: %v", ErrBadEnvelope, e.Type, err)
	}
	return nil
}
