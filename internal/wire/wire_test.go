package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"secstack/internal/faultpoint"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpHello, Arg: HelloArg()},
		{Op: OpStackPush, Arg: 42},
		{Op: OpStackPop},
		{Op: OpStackPeek},
		{Op: OpPoolPut, Arg: -1},
		{Op: OpPoolGet},
		{Op: OpFunnelAdd, Arg: 1 << 62},
		{Op: OpFunnelTryAdd, Arg: -(1 << 62)},
		{Op: OpFunnelLoad},
		{Op: OpStats},
		{Op: OpRetryMark, Arg: 3},
	}
	for _, q := range cases {
		t.Run(q.Op.String(), func(t *testing.T) {
			b := AppendRequest(nil, q)
			if len(b) != RequestSize {
				t.Fatalf("encoded %d bytes, want %d", len(b), RequestSize)
			}
			got, n, err := DecodeRequest(b)
			if err != nil {
				t.Fatalf("DecodeRequest: %v", err)
			}
			if n != RequestSize || got != q {
				t.Fatalf("round trip: got %+v (n=%d), want %+v (n=%d)", got, n, q, RequestSize)
			}
			// A streaming decoder must also find the frame at the front of
			// a longer buffer.
			if got2, n2, err := DecodeRequest(append(b, 0xff, 0xfe)); err != nil || n2 != RequestSize || got2 != q {
				t.Fatalf("decode with trailing bytes: got %+v n=%d err=%v", got2, n2, err)
			}
			// Via the stream reader too.
			rq, err := ReadRequest(bufio.NewReader(bytes.NewReader(b)))
			if err != nil || rq != q {
				t.Fatalf("ReadRequest: got %+v err=%v", rq, err)
			}
		})
	}
}

func TestReplyRoundTrip(t *testing.T) {
	cases := []Reply{
		{Status: StatusOK, Value: 7},
		{Status: StatusEmpty},
		{Status: StatusContended, Value: -3},
		{Status: StatusBusy},
		{Status: StatusBadRequest},
		{Status: StatusShutdown},
		{Status: StatusOK, Value: 1, Banner: "secd/1 alg=SEC registry=SEC,TRB"},
		{Status: StatusOK, Banner: "bänner → ünïcode"},
		{Status: StatusOK, Banner: strings.Repeat("x", MaxBanner)},
	}
	for _, p := range cases {
		t.Run(p.Status.String(), func(t *testing.T) {
			b := AppendReply(nil, p)
			got, n, err := DecodeReply(b)
			if err != nil {
				t.Fatalf("DecodeReply: %v", err)
			}
			if n != len(b) || got != p {
				t.Fatalf("round trip: got %+v (n=%d), want %+v (n=%d)", got, n, p, len(b))
			}
			if got2, _, err := DecodeReply(append(b, 0x01)); err != nil || got2 != p {
				t.Fatalf("decode with trailing bytes: got %+v err=%v", got2, err)
			}
			// The MaxBanner case is a 4109-byte frame, longer than the
			// default reader's 4096-byte buffer.
			rp, err := ReadReply(bufio.NewReader(bytes.NewReader(b)))
			if err != nil || rp != p {
				t.Fatalf("ReadReply: got %+v err=%v", rp, err)
			}
		})
	}
}

// TestReadFramesInPlace pins the stream readers' contract: frames
// decode in place in the reader's buffer, so neither a request nor a
// banner-less reply allocates, and a stream that ends inside a frame is
// io.ErrUnexpectedEOF while one that ends between frames is io.EOF.
func TestReadFramesInPlace(t *testing.T) {
	const frames = 64
	var reqs, reps []byte
	for i := range frames {
		reqs = AppendRequest(reqs, Request{Op: OpStackPush, Arg: int64(i)})
		reps = AppendReply(reps, Reply{Status: StatusOK, Value: int64(i)})
	}
	rr, pr := bytes.NewReader(reqs), bytes.NewReader(reps)
	qbr, pbr := bufio.NewReader(rr), bufio.NewReader(pr)
	var i int64
	allocs := testing.AllocsPerRun(frames-1, func() {
		if q, err := ReadRequest(qbr); err != nil || q.Arg != i {
			t.Fatalf("request %d: %+v %v", i, q, err)
		}
		if p, err := ReadReply(pbr); err != nil || p.Value != i {
			t.Fatalf("reply %d: %+v %v", i, p, err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("reading a request and a reply allocates %.2f times, want 0", allocs)
	}

	req := AppendRequest(nil, Request{Op: OpStackPop})
	rep := AppendReply(nil, Reply{Status: StatusOK, Banner: "secd"})
	for _, tc := range []struct {
		name string
		read func(*bufio.Reader) error
		b    []byte
	}{
		{"request", func(br *bufio.Reader) error { _, err := ReadRequest(br); return err }, req},
		{"reply", func(br *bufio.Reader) error { _, err := ReadReply(br); return err }, rep},
	} {
		if err := tc.read(bufio.NewReader(bytes.NewReader(nil))); err != io.EOF {
			t.Errorf("%s from an empty stream: %v, want io.EOF", tc.name, err)
		}
		for _, cut := range []int{1, lenSize, len(tc.b) - 1} {
			if err := tc.read(bufio.NewReader(bytes.NewReader(tc.b[:cut]))); err != io.ErrUnexpectedEOF {
				t.Errorf("%s cut at %d of %d bytes: %v, want io.ErrUnexpectedEOF", tc.name, cut, len(tc.b), err)
			}
		}
	}
	oversize := []byte{0, 0, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, err := ReadReply(bufio.NewReader(bytes.NewReader(oversize))); !errors.Is(err, ErrFrame) {
		t.Errorf("oversize reply length: %v, want ErrFrame", err)
	}
}

func TestReplyBannerTruncated(t *testing.T) {
	long := strings.Repeat("y", MaxBanner+100)
	b := AppendReply(nil, Reply{Status: StatusOK, Banner: long})
	got, _, err := DecodeReply(b)
	if err != nil {
		t.Fatalf("DecodeReply: %v", err)
	}
	if len(got.Banner) != MaxBanner || got.Banner != long[:MaxBanner] {
		t.Fatalf("banner not truncated to MaxBanner: len=%d", len(got.Banner))
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	valid := AppendRequest(nil, Request{Op: OpStackPush, Arg: 1})
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrShort},
		{"short length prefix", valid[:3], ErrShort},
		{"truncated payload", valid[:RequestSize-1], ErrShort},
		{"bad length", []byte{0, 0, 0, 200, 2, 0, 0, 0, 0, 0, 0, 0, 1}, ErrFrame},
		{"zero length", []byte{0, 0, 0, 0}, ErrFrame},
		{"unknown opcode", []byte{0, 0, 0, 9, 99, 0, 0, 0, 0, 0, 0, 0, 0}, ErrFrame},
		{"opcode zero", []byte{0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0}, ErrFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, n, err := DecodeRequest(tc.b)
			if !errors.Is(err, tc.want) || n != 0 {
				t.Fatalf("got n=%d err=%v, want %v", n, err, tc.want)
			}
		})
	}
}

func TestDecodeReplyErrors(t *testing.T) {
	valid := AppendReply(nil, Reply{Status: StatusOK, Value: 1})
	oversize := []byte{0, 0, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrShort},
		{"short length prefix", valid[:2], ErrShort},
		{"truncated payload", valid[:ReplyHeaderSize-2], ErrShort},
		{"undersize length", []byte{0, 0, 0, 3, 0, 0, 0}, ErrFrame},
		{"oversize length", oversize, ErrFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, n, err := DecodeReply(tc.b)
			if !errors.Is(err, tc.want) || n != 0 {
				t.Fatalf("got n=%d err=%v, want %v", n, err, tc.want)
			}
		})
	}
}

// TestDecodeFaultpoint pins the wire.decode injection site: armed, a
// perfectly valid frame decodes as ErrFrame - the malformed-bytes path
// without malformed bytes - and disarmed decoding is untouched.
func TestDecodeFaultpoint(t *testing.T) {
	defer faultpoint.Reset()
	valid := AppendRequest(nil, Request{Op: OpStackPush, Arg: 7})
	faultpoint.Arm(FPDecode, faultpoint.Spec{Action: faultpoint.ActError, Count: 1})
	if _, n, err := DecodeRequest(valid); !errors.Is(err, ErrFrame) || n != 0 {
		t.Fatalf("armed decode: n=%d err=%v, want ErrFrame", n, err)
	}
	if q, _, err := DecodeRequest(valid); err != nil || q.Arg != 7 {
		t.Fatalf("decode after the Count window: %+v %v", q, err)
	}
}

func TestCheckHello(t *testing.T) {
	if err := CheckHello(HelloArg()); err != nil {
		t.Fatalf("CheckHello(HelloArg()): %v", err)
	}
	if err := CheckHello(0); err == nil {
		t.Fatal("CheckHello(0) accepted")
	}
	wrongVersion := int64(uint64(Magic)<<32 | uint64(Version+1))
	if err := CheckHello(wrongVersion); err == nil {
		t.Fatal("CheckHello accepted a future protocol version")
	}
}

func TestOpAndStatusStrings(t *testing.T) {
	// Every defined op and status names itself; out-of-range values
	// fall back to a numeric form instead of panicking.
	for o := OpHello; o < NumOps; o++ {
		if s := o.String(); s == "" || strings.HasPrefix(s, "op(") {
			t.Fatalf("op %d has no name: %q", o, s)
		}
	}
	if s := Op(200).String(); s != "op(200)" {
		t.Fatalf("unknown op string: %q", s)
	}
	if s := Status(200).String(); s != "status(200)" {
		t.Fatalf("unknown status string: %q", s)
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to both decoders. The property
// under test is total safety: any input yields (frame, n>0, nil) or an
// error - never a panic, and never a claim to have consumed more bytes
// than the buffer holds. Valid frames must re-encode to the bytes that
// produced them (canonical framing).
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendRequest(nil, Request{Op: OpHello, Arg: HelloArg()}))
	f.Add(AppendRequest(nil, Request{Op: OpFunnelAdd, Arg: -17}))
	f.Add(AppendReply(nil, Reply{Status: StatusOK, Value: 9, Banner: "secd/1"}))
	f.Add(AppendReply(nil, Reply{Status: StatusBusy}))
	f.Add([]byte{0, 0, 0, 9})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		if q, n, err := DecodeRequest(b); err == nil {
			if n != RequestSize || n > len(b) {
				t.Fatalf("request consumed %d of %d bytes", n, len(b))
			}
			if re := AppendRequest(nil, q); !bytes.Equal(re, b[:n]) {
				t.Fatalf("request not canonical: % x -> %+v -> % x", b[:n], q, re)
			}
		}
		if p, n, err := DecodeReply(b); err == nil {
			if n < ReplyHeaderSize || n > len(b) {
				t.Fatalf("reply consumed %d of %d bytes", n, len(b))
			}
			if re := AppendReply(nil, p); !bytes.Equal(re, b[:n]) {
				t.Fatalf("reply not canonical: % x -> %+v -> % x", b[:n], p, re)
			}
		}
	})
}
