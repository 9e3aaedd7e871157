// Package wire defines secd's length-prefixed binary protocol: the
// frames a client exchanges with the server that fronts the stack,
// pool and funnel (internal/secd). The framing is deliberately boring
// - fixed-width big-endian integers, no varints, no reflection - so a
// request can be decoded with two bounds checks and the fuzzer
// (FuzzDecodeFrame) can state the only interesting property: malformed
// bytes produce errors, never panics.
//
// Every frame starts with a 4-byte big-endian payload length. Request
// payloads are fixed-size: one opcode byte plus one 8-byte argument
// (zero for argument-less operations), so every request is exactly
// RequestSize bytes on the wire and a server can refuse anything else
// before looking at it. Reply payloads are one status byte plus one
// 8-byte value, optionally followed by a banner (the handshake's
// registry string); the length prefix is what delimits the banner.
//
//	request:  | u32 len=9        | u8 op     | i64 arg   |
//	reply:    | u32 len=9+len(b) | u8 status | i64 value | banner b |
//
// The session handshake is itself a frame pair: the first request on a
// connection must be OpHello carrying HelloArg() (magic and protocol
// version packed into the argument), and the server answers with
// StatusOK and its banner - or StatusBusy when MaxThreads sessions are
// already live, which is the protocol-level backpressure mapping of
// the engines' TryRegister contract.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"secstack/internal/faultpoint"
)

// FPDecode is the package's fault-injection site (internal/faultpoint):
// armed, request decoding fails with ErrFrame before looking at the
// bytes, which a server must treat exactly like a malformed frame -
// reply StatusBadRequest or drop the connection. Disarmed it costs one
// atomic load per decode.
const FPDecode = "wire.decode"

// Magic identifies a secd client's Hello ("SECD" in ASCII); Version is
// the protocol revision, bumped on any frame-layout or opcode change.
// v2 added OpRetryMark, the client's retry telemetry note.
const (
	Magic   uint32 = 0x53454344
	Version uint32 = 2
)

// Op is a request opcode. Opcodes are dense from 1 so servers can
// index per-op metrics by opcode.
type Op uint8

// The protocol's operations. Stack ops serve the session's stack
// handle, pool ops its pool handle, funnel ops its funnel handle (the
// funnel doubling as the served counter / rate-limiter endpoint), and
// OpStats reads the server's live-session gauge.
const (
	OpHello        Op = 1  // handshake; arg = HelloArg()
	OpStackPush    Op = 2  // arg = value
	OpStackPop     Op = 3  // reply value = popped element
	OpStackPeek    Op = 4  // reply value = top element
	OpPoolPut      Op = 5  // arg = value
	OpPoolGet      Op = 6  // reply value = some element
	OpFunnelAdd    Op = 7  // arg = amount; reply value = counter before the add
	OpFunnelTryAdd Op = 8  // arg = amount; StatusContended when the solo CAS lost
	OpFunnelLoad   Op = 9  // reply value = counter
	OpStats        Op = 10 // reply value = live sessions
	OpRetryMark    Op = 11 // arg = ops the client is about to replay after a reconnect; reply value = server's total retries observed
)

// NumOps is one past the highest opcode - the size of a per-op metrics
// table indexed by Op.
const NumOps = 12

// String names the opcode for logs and load-generator reports.
func (o Op) String() string {
	switch o {
	case OpHello:
		return "hello"
	case OpStackPush:
		return "stack.push"
	case OpStackPop:
		return "stack.pop"
	case OpStackPeek:
		return "stack.peek"
	case OpPoolPut:
		return "pool.put"
	case OpPoolGet:
		return "pool.get"
	case OpFunnelAdd:
		return "funnel.add"
	case OpFunnelTryAdd:
		return "funnel.tryadd"
	case OpFunnelLoad:
		return "funnel.load"
	case OpStats:
		return "stats"
	case OpRetryMark:
		return "retry.mark"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// validOp reports whether o is a defined opcode.
func validOp(o Op) bool { return o >= OpHello && o < NumOps }

// Status is a reply's outcome byte.
type Status uint8

// Reply statuses. StatusEmpty and StatusContended are successful
// protocol outcomes (the operation ran; the structure had nothing to
// give, or the try-variant's CAS lost); StatusBusy and StatusBadRequest
// are connection-level: Busy rejects a handshake with backpressure,
// BadRequest precedes the server closing the connection, and
// StatusShutdown is the server's goodbye while draining.
const (
	StatusOK         Status = 0
	StatusEmpty      Status = 1
	StatusContended  Status = 2
	StatusBusy       Status = 3
	StatusBadRequest Status = 4
	StatusShutdown   Status = 5
)

// String names the status for logs and load-generator reports.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusEmpty:
		return "empty"
	case StatusContended:
		return "contended"
	case StatusBusy:
		return "busy"
	case StatusBadRequest:
		return "bad-request"
	case StatusShutdown:
		return "shutdown"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Frame sizes. Every request is RequestSize bytes on the wire; a reply
// is at least ReplyHeaderSize and at most ReplyHeaderSize+MaxBanner.
const (
	lenSize         = 4                    // u32 length prefix
	reqPayload      = 1 + 8                // op + arg
	repPayload      = 1 + 8                // status + value
	RequestSize     = lenSize + reqPayload // 13: fixed on-wire size of every request
	ReplyHeaderSize = lenSize + repPayload // 13: reply size without a banner
	// MaxBanner bounds the handshake banner so a hostile length prefix
	// cannot make a client allocate unboundedly.
	MaxBanner = 4096
)

// Decode errors. ErrShort means the buffer ends mid-frame (a streaming
// caller should read more bytes); ErrFrame means the bytes cannot be a
// frame at any length (a server should drop the connection).
var (
	ErrShort = errors.New("wire: short frame")
	ErrFrame = errors.New("wire: malformed frame")
)

// Request is one decoded request frame.
type Request struct {
	Op  Op
	Arg int64
}

// Reply is one decoded reply frame. Banner is non-empty only on
// handshake replies.
type Reply struct {
	Status Status
	Value  int64
	Banner string
}

// HelloArg packs the protocol magic and version into OpHello's
// argument.
func HelloArg() int64 { return int64(uint64(Magic)<<32 | uint64(Version)) }

// CheckHello validates a Hello argument against this package's magic
// and version.
func CheckHello(arg int64) error {
	u := uint64(arg)
	if uint32(u>>32) != Magic {
		return fmt.Errorf("%w: bad hello magic %#x", ErrFrame, u>>32)
	}
	if v := uint32(u); v != Version {
		return fmt.Errorf("%w: protocol version %d, want %d", ErrFrame, v, Version)
	}
	return nil
}

// AppendRequest appends q's frame to dst and returns the extended
// slice.
func AppendRequest(dst []byte, q Request) []byte {
	dst = binary.BigEndian.AppendUint32(dst, reqPayload)
	dst = append(dst, byte(q.Op))
	return binary.BigEndian.AppendUint64(dst, uint64(q.Arg))
}

// DecodeRequest decodes one request frame from the front of b,
// returning the frame and the bytes consumed. It never panics: a
// truncated buffer is ErrShort, anything structurally invalid is
// ErrFrame.
func DecodeRequest(b []byte) (q Request, n int, err error) {
	if faultpoint.Hit(FPDecode) != nil {
		return q, 0, fmt.Errorf("%w: injected decode fault", ErrFrame)
	}
	if len(b) < lenSize {
		return q, 0, ErrShort
	}
	if l := binary.BigEndian.Uint32(b); l != reqPayload {
		return q, 0, fmt.Errorf("%w: request payload length %d, want %d", ErrFrame, l, reqPayload)
	}
	if len(b) < RequestSize {
		return q, 0, ErrShort
	}
	q.Op = Op(b[lenSize])
	if !validOp(q.Op) {
		return Request{}, 0, fmt.Errorf("%w: unknown opcode %d", ErrFrame, b[lenSize])
	}
	q.Arg = int64(binary.BigEndian.Uint64(b[lenSize+1:]))
	return q, RequestSize, nil
}

// AppendReply appends p's frame to dst and returns the extended slice.
// Banners longer than MaxBanner are truncated rather than producing a
// frame no conforming decoder would accept.
func AppendReply(dst []byte, p Reply) []byte {
	banner := p.Banner
	if len(banner) > MaxBanner {
		banner = banner[:MaxBanner]
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(repPayload+len(banner)))
	dst = append(dst, byte(p.Status))
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.Value))
	return append(dst, banner...)
}

// DecodeReply decodes one reply frame from the front of b, returning
// the frame and the bytes consumed. It never panics: a truncated
// buffer is ErrShort, anything structurally invalid is ErrFrame.
func DecodeReply(b []byte) (p Reply, n int, err error) {
	if len(b) < lenSize {
		return p, 0, ErrShort
	}
	l, err := replyPayload(b)
	if err != nil {
		return p, 0, err
	}
	total := lenSize + l
	if len(b) < total {
		return p, 0, ErrShort
	}
	p = replyHeader(b)
	if banner := b[ReplyHeaderSize:total]; len(banner) > 0 {
		p.Banner = string(banner)
	}
	return p, total, nil
}

// replyPayload validates the length prefix at the front of b, which
// holds at least lenSize bytes, and returns the reply's payload length.
func replyPayload(b []byte) (int, error) {
	l := binary.BigEndian.Uint32(b)
	if l < repPayload || l > repPayload+MaxBanner {
		return 0, fmt.Errorf("%w: reply payload length %d outside [%d, %d]", ErrFrame, l, repPayload, repPayload+MaxBanner)
	}
	return int(l), nil
}

// replyHeader decodes the status and value of the reply at the front of
// b, which holds at least ReplyHeaderSize bytes.
func replyHeader(b []byte) Reply {
	return Reply{Status: Status(b[lenSize]), Value: int64(binary.BigEndian.Uint64(b[lenSize+1:]))}
}

// ReadRequest reads exactly one request frame from br. It decodes the
// frame in place in br's buffer and then discards it, so a request
// allocates nothing. A stream that ends before the frame's first byte
// is io.EOF, one that ends inside it io.ErrUnexpectedEOF; a frame that
// fails to decode is consumed all the same.
func ReadRequest(br *bufio.Reader) (Request, error) {
	b, err := peek(br, RequestSize)
	if err != nil {
		return Request{}, err
	}
	q, _, err := DecodeRequest(b)
	br.Discard(RequestSize) // cannot fail: peek buffered the frame
	return q, err
}

// ReadReply reads exactly one reply frame from br, with ReadRequest's
// end-of-stream errors. The status and value are decoded in place in
// br's buffer, so only a banner allocates. The banner is copied out
// rather than peeked, so a frame longer than br's buffer still decodes:
// a banner near MaxBanner makes a frame of up to 4109 bytes, and bufio's
// default buffer holds 4096.
func ReadReply(br *bufio.Reader) (Reply, error) {
	b, err := peek(br, lenSize)
	if err != nil {
		return Reply{}, err
	}
	l, err := replyPayload(b)
	if err != nil {
		return Reply{}, err
	}
	if b, err = peek(br, ReplyHeaderSize); err != nil {
		return Reply{}, err
	}
	p := replyHeader(b)
	br.Discard(ReplyHeaderSize) // cannot fail: peek buffered the header
	if n := l - repPayload; n > 0 {
		banner := make([]byte, n)
		if _, err := io.ReadFull(br, banner); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Reply{}, err
		}
		p.Banner = string(banner)
	}
	return p, nil
}

// peek returns br's next n bytes without consuming them. Like
// io.ReadFull, it reports a stream that ended after some but not all of
// them as io.ErrUnexpectedEOF. Bytes already buffered stay buffered on
// any error, so a read interrupted by a deadline never leaves the
// stream mid-frame.
func peek(br *bufio.Reader, n int) ([]byte, error) {
	b, err := br.Peek(n)
	if err == io.EOF && len(b) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}
