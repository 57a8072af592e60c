// Package wire is the real network transport of the DPI service: a
// length-prefixed framed codec with version, type and session fields
// shared by the data and control planes, a reliable seq/ack channel
// with jittered retransmission and an in-order reorder window for
// result frames, and batched datagram I/O (sendmmsg/recvmmsg-shaped,
// with a portable fallback) behind a Transport interface that both a
// real UDP socket and the deterministic netsim fabric satisfy.
//
// The paper's premise is that DPI becomes a *service*: middleboxes,
// DPI instances and the controller are separate machines joined by a
// network (Section 4). Package netsim simulates that network inside one
// process for tests; package wire is what the standalone daemons
// (cmd/dpictl, cmd/dpinstance, cmd/mboxd, cmd/trafficgen) speak when
// they run as genuinely separate OS processes.
package wire

import (
	"encoding/binary"
	"errors"
)

// Version is the wire protocol version stamped into every frame.
const Version = 1

// Type discriminates frames.
type Type uint8

// Frame types. Data, Result and Verdict frames ride the reliable
// channel (seq/ack, retransmitted); Hello carries its own retry loop
// and Ack frames are pure feedback.
const (
	// THello opens a session: the header token authenticates the
	// sender, the payload is its textual identity. Retransmitted by the
	// client until THelloAck arrives.
	THello Type = 1 + iota
	// THelloAck confirms a session. Seq echoes the Hello seq.
	THelloAck
	// TData carries one packet toward a DPI instance: a data subheader
	// (chain tag + five-tuple) followed by the payload. Reliable.
	TData
	// TResult answers one TData frame: 4 bytes echoing the data frame's
	// seq, then the encoded match report (empty = no matches). Reliable.
	TResult
	// TVerdict forwards one non-empty match verdict from a DPI instance
	// to a middlebox consumer: chain tag + five-tuple + encoded report.
	// Reliable.
	TVerdict
	// TAck acknowledges reliable frames: the header Ack field is the
	// cumulative ack, the payload a variable-length LSB-first
	// selective-ack bitmap where bit i covers seq Ack+1+i.
	TAck
)

// reliable reports whether frames of type t use the seq/ack channel.
//
//dpi:hotpath
func reliable(t Type) bool { return t == TData || t == TResult || t == TVerdict }

// HeaderLen is the fixed frame header size.
//
// Layout (big-endian):
//
//	off size field
//	0   1    version
//	1   1    type
//	2   1    flags (reserved, zero)
//	3   1    reserved (zero)
//	4   8    session token
//	12  4    seq
//	16  4    ack (cumulative: all seqs below it received)
//	20  4    payload length
//
// The explicit length makes frames self-delimiting, so several can be
// packed into one datagram and the identical codec runs over stream
// transports (the ctlproto control plane frames its JSON envelopes the
// same way).
const HeaderLen = 24

// MaxFramePayload bounds one frame's payload on the datagram planes —
// a jumbo-frame budget; bigger app payloads must be split by the
// caller. Stream consumers (the control plane) pass their own larger
// bound to ParseHeader.
const MaxFramePayload = 16 << 10

// MaxDatagram is the buffer size ReadBatch callers must provide: the
// largest frame plus headroom for small frames packed in front of it.
const MaxDatagram = MaxFramePayload + 512

// Codec errors.
var (
	ErrBadVersion   = errors.New("wire: unsupported frame version")
	ErrBadType      = errors.New("wire: unknown frame type")
	ErrShortFrame   = errors.New("wire: truncated frame")
	ErrFrameTooBig  = errors.New("wire: frame payload exceeds limit")
	ErrBadToken     = errors.New("wire: session token rejected")
	ErrWindowFull   = errors.New("wire: send window full")
	ErrSessionDead  = errors.New("wire: session dead (retransmit limit)")
	ErrClosed       = errors.New("wire: closed")
	ErrNoSession    = errors.New("wire: no session established")
	ErrPayloadSplit = errors.New("wire: payload exceeds MaxFramePayload or the path's datagram size")
	ErrMsgSize      = errors.New("wire: datagram exceeds the path MTU")
)

// Header is one decoded frame header.
type Header struct {
	Version uint8
	Type    Type
	Flags   uint8
	Token   uint64
	Seq     uint32
	Ack     uint32
	Length  uint32
}

// PutHeader encodes h into b, which must hold HeaderLen bytes.
//
//dpi:hotpath
func PutHeader(b []byte, h Header) {
	_ = b[HeaderLen-1]
	b[0] = h.Version
	b[1] = uint8(h.Type)
	b[2] = h.Flags
	b[3] = 0
	binary.BigEndian.PutUint64(b[4:12], h.Token)
	binary.BigEndian.PutUint32(b[12:16], h.Seq)
	binary.BigEndian.PutUint32(b[16:20], h.Ack)
	binary.BigEndian.PutUint32(b[20:24], h.Length)
}

// AppendFrame appends a complete frame (header + payload) to dst.
//
//dpi:hotpath
func AppendFrame(dst []byte, h Header, payload []byte) []byte {
	h.Version = Version
	h.Length = uint32(len(payload))
	var hdr [HeaderLen]byte
	PutHeader(hdr[:], h)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ParseHeader decodes one header from b and validates version, type
// and the payload length against maxPayload.
//
//dpi:hotpath
func ParseHeader(b []byte, maxPayload uint32) (Header, error) {
	var h Header
	if len(b) < HeaderLen {
		return h, ErrShortFrame
	}
	h.Version = b[0]
	h.Type = Type(b[1])
	h.Flags = b[2]
	h.Token = binary.BigEndian.Uint64(b[4:12])
	h.Seq = binary.BigEndian.Uint32(b[12:16])
	h.Ack = binary.BigEndian.Uint32(b[16:20])
	h.Length = binary.BigEndian.Uint32(b[20:24])
	if h.Version != Version {
		return h, ErrBadVersion
	}
	if h.Type < THello || h.Type > TAck {
		return h, ErrBadType
	}
	if h.Length > maxPayload {
		return h, ErrFrameTooBig
	}
	return h, nil
}

// NextFrame decodes the first frame in b and returns the remainder —
// the datagram iteration primitive. payload aliases b.
//
//dpi:hotpath
func NextFrame(b []byte) (h Header, payload, rest []byte, err error) {
	h, err = ParseHeader(b, MaxFramePayload)
	if err != nil {
		return h, nil, nil, err
	}
	end := HeaderLen + int(h.Length)
	if len(b) < end {
		return h, nil, nil, ErrShortFrame
	}
	return h, b[HeaderLen:end], b[end:], nil
}

// Frame flag bits (Header.Flags).
const (
	// FlagTrace marks a TData/TVerdict frame whose payload carries a
	// trace extension (TraceExtLen bytes) between the data subheader and
	// the application bytes: the packet belongs to a sampled flow and
	// every stage it crosses records spans under the carried trace ID.
	// The flag is stored per send slot, so retransmissions re-emit it.
	FlagTrace uint8 = 1 << 0
)

// TraceExtLen is the in-band trace context size: an 8-byte trace ID
// followed by a 4-byte per-flow packet index, both big-endian. Present
// only when FlagTrace is set.
const TraceExtLen = 12

// Data subheader: chain tag and five-tuple in front of a TData payload,
// identical to the TCP data plane's framing.
//
//	off size field
//	0   2    chain tag
//	2   4    src IPv4
//	6   4    dst IPv4
//	10  2    src port
//	12  2    dst port
//	14  1    protocol
const DataHdrLen = 15

// ResultHdrLen prefixes a TResult payload: the echoed TData seq that
// this result answers, so results pair with packets independent of
// scan completion order.
const ResultHdrLen = 4
