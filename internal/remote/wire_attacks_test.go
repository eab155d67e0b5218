package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"salus/internal/accel"
)

// The transport is untrusted (§3.1): anything on the TCP path may rewrite a
// frame. These tests put a rewriting proxy between an attested session and
// its gateway and attack the binary job wire where it is new: the raw sealed
// sections, the host-visible routing header beside them, and the lengths that
// delimit them. They are the network-side counterpart of core's
// runtime-attack tests.

// wireFrame is one rpc frame as the proxy sees it.
type wireFrame struct {
	toGateway bool
	kind      byte // 1 request, 2 result, 3 error
	method    string
	payload   []byte // after the codec byte; the proxy sends whatever it holds after the hook
}

// frameProxy relays rpc frames between a client and upstream, handing each to
// rewrite first. What a hook captured is read after the next set.
type frameProxy struct {
	addr string

	mu      sync.Mutex
	rewrite func(f *wireFrame)
}

func (p *frameProxy) set(rewrite func(f *wireFrame)) {
	p.mu.Lock()
	p.rewrite = rewrite
	p.mu.Unlock()
}

func newFrameProxy(t *testing.T, upstream string) *frameProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &frameProxy{addr: ln.Addr().String()}
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				down.Close()
				return
			}
			go p.pump(down, up, true)
			go p.pump(up, down, false)
		}
	}()
	return p
}

func (p *frameProxy) pump(from, to net.Conn, toGateway bool) {
	defer from.Close()
	defer to.Close()
	br := bufio.NewReader(from)
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		// u8 kind | u64 id | u8 method length | method | u8 codec | payload
		envelope := 1 + 8 + 1 + int(body[9]) + 1
		f := wireFrame{toGateway: toGateway, kind: body[0], method: string(body[10 : envelope-1]), payload: body[envelope:]}
		p.mu.Lock() // held across the hook: set() then orders the test after it
		if p.rewrite != nil {
			p.rewrite(&f)
		}
		p.mu.Unlock()
		out := binary.BigEndian.AppendUint32(nil, uint32(envelope+len(f.payload)))
		out = append(append(out, body[:envelope]...), f.payload...)
		if _, err := to.Write(out); err != nil {
			return
		}
	}
}

// attackedSession is an attested session whose every frame crosses a
// rewriting proxy, with one small Conv job and its golden output.
func attackedSession(t *testing.T) (*frameProxy, *ClusterSession, accel.Workload, []byte) {
	t.Helper()
	d := newClusterDeployment(t, 2, accel.Conv{})
	p := newFrameProxy(t, d.addr)
	sess, err := DialCluster(p.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	w := accel.GenConv(4, 4, 1, 16)
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	return p, sess, w, want
}

// mustRunClean checks the session is still usable and still correct once the
// attacker stands down.
func mustRunClean(t *testing.T, p *frameProxy, sess *ClusterSession, w accel.Workload, want []byte) {
	t.Helper()
	p.set(nil)
	if out, err := sess.RunJob("Conv", w.Params, w.Input); err != nil || !bytes.Equal(out, want) {
		t.Fatalf("session unusable after the attack: %v", err)
	}
}

func TestWireAttackFlipSealedByte(t *testing.T) {
	p, sess, w, want := attackedSession(t)
	// Every byte of each sealed section, single jobs; then one byte of one
	// job inside a batch, which must fail alone.
	var section int
	p.set(func(f *wireFrame) {
		if f.toGateway && f.method == "Cluster.RunJob" {
			var r JobRequest
			if err := r.DecodeWire(f.payload); err != nil {
				t.Error(err)
			}
			section = len(r.SealedInput)
		}
	})
	if _, err := sess.RunJob("Conv", w.Params, w.Input); err != nil {
		t.Fatal(err)
	}
	p.set(nil)
	for at := 1; at <= section; at++ {
		p.set(func(f *wireFrame) {
			if f.toGateway && f.method == "Cluster.RunJob" {
				f.payload[len(f.payload)-at] ^= 0x01 // the sealed input is the payload's tail
			}
		})
		if _, err := sess.RunJob("Conv", w.Params, w.Input); err == nil || !strings.Contains(err.Error(), "sealed job input rejected") {
			t.Fatalf("input byte -%d flipped: err = %v, want sealed job input rejected", at, err)
		}
	}
	var outSection int
	p.set(func(f *wireFrame) {
		if !f.toGateway && f.kind == 2 {
			var r JobResponse
			if r.DecodeWire(f.payload) == nil {
				outSection = len(r.SealedOutput)
			}
		}
	})
	if _, err := sess.RunJob("Conv", w.Params, w.Input); err != nil {
		t.Fatal(err)
	}
	p.set(nil)
	for at := 1; at <= outSection; at++ {
		p.set(func(f *wireFrame) {
			if !f.toGateway && f.kind == 2 {
				f.payload[len(f.payload)-at] ^= 0x80
			}
		})
		if _, err := sess.RunJob("Conv", w.Params, w.Input); err == nil || !strings.Contains(err.Error(), "sealed output rejected") {
			t.Fatalf("output byte -%d flipped: err = %v, want sealed output rejected", at, err)
		}
	}

	p.set(func(f *wireFrame) {
		if f.toGateway && f.method == "Cluster.RunBatch" {
			f.payload[len(f.payload)-1] ^= 0x01 // the last job's sealed input
		}
	})
	res, err := sess.RunBatch("Conv", []BatchInput{{w.Params, w.Input}, {w.Params, w.Input}, {w.Params, w.Input}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		switch {
		case i < 2 && (r.Err != nil || !bytes.Equal(r.Output, want)):
			t.Errorf("untouched batch job %d: %v", i, r.Err)
		case i == 2 && (r.Err == nil || !strings.Contains(r.Err.Error(), "sealed job input rejected")):
			t.Errorf("tampered batch job: err = %v, want sealed job input rejected", r.Err)
		}
	}
	mustRunClean(t, p, sess, w, want)
}

func TestWireAttackReplayOutputAsInput(t *testing.T) {
	p, sess, w, want := attackedSession(t)
	// Capture a sealed output, then splice it in as the next request's sealed
	// input: same key, genuine ciphertext, wrong AAD domain.
	var captured []byte
	p.set(func(f *wireFrame) {
		var r JobResponse
		if !f.toGateway && f.kind == 2 && r.DecodeWire(f.payload) == nil {
			captured = bytes.Clone(r.SealedOutput)
		}
	})
	_, err := sess.RunJob("Conv", w.Params, w.Input)
	p.set(nil)
	if err != nil || captured == nil {
		t.Fatalf("capture run: %v", err)
	}
	p.set(func(f *wireFrame) {
		var r JobRequest
		if f.toGateway && f.method == "Cluster.RunJob" && r.DecodeWire(f.payload) == nil {
			r.SealedInput = captured
			f.payload = appendJobRequest(nil, r)
		}
	})
	if _, err := sess.RunJob("Conv", w.Params, w.Input); err == nil || !strings.Contains(err.Error(), "sealed job input rejected") {
		t.Fatalf("replayed output accepted as input: err = %v", err)
	}
	mustRunClean(t, p, sess, w, want)
}

func TestWireAttackRewriteRoutingHeader(t *testing.T) {
	p, sess, w, want := attackedSession(t)
	// The routing header is host-visible by design: rewriting it may change
	// where, when or whether a job runs, never what it computes.
	for _, forge := range []func(*JobRequest){
		func(r *JobRequest) { r.Class = "critical" },
		func(r *JobRequest) { r.Class = "batch"; r.Tenant = "somebody-else" },
		func(r *JobRequest) { r.Class = "no-such-class" },
		func(r *JobRequest) { r.DeadlineMillis = 1 },
		func(r *JobRequest) { r.DeadlineMillis = -1; r.Key = "another-session" },
	} {
		p.set(func(f *wireFrame) {
			var r JobRequest
			if f.toGateway && f.method == "Cluster.RunJob" && r.DecodeWire(f.payload) == nil {
				forge(&r)
				f.payload = appendJobRequest(nil, r)
			}
		})
		out, err := sess.RunJob("Conv", w.Params, w.Input)
		if err == nil && !bytes.Equal(out, want) {
			t.Fatal("a forged routing header changed a job's output")
		}
		if err != nil && !strings.Contains(err.Error(), "unknown class") && !strings.Contains(err.Error(), "deadline") {
			t.Fatalf("forged routing header: err = %v, want a clean refusal", err)
		}
	}
	mustRunClean(t, p, sess, w, want)
}

func TestWireAttackSectionLength(t *testing.T) {
	p, sess, w, want := attackedSession(t)
	// Shrinking or growing a section's length prefix inside an intact frame is
	// a decode error for that one call, on either side, and never an
	// over-read into a neighbouring frame.
	for _, delta := range []int{-1, +1, -16, 1 << 20} {
		for _, toGateway := range []bool{true, false} {
			p.set(func(f *wireFrame) {
				if f.toGateway != toGateway || (toGateway && f.method != "Cluster.RunJob") || (!toGateway && f.kind != 2) {
					return
				}
				var n int
				if toGateway {
					var r JobRequest
					if err := r.DecodeWire(f.payload); err != nil {
						t.Error(err)
					}
					n = len(r.SealedInput)
				} else {
					var r JobResponse
					if err := r.DecodeWire(f.payload); err != nil {
						t.Error(err)
					}
					n = len(r.SealedOutput)
				}
				binary.BigEndian.PutUint32(f.payload[len(f.payload)-n-4:], uint32(n+delta))
			})
			_, err := sess.RunJob("Conv", w.Params, w.Input)
			if err == nil || !strings.Contains(err.Error(), "rpc: ") {
				t.Fatalf("section length %+d (to gateway %v): err = %v, want a decode error", delta, toGateway, err)
			}
			mustRunClean(t, p, sess, w, want)
		}
	}
	if sess.Redials() != 0 {
		t.Errorf("a lying section length broke the connection %d times; the frame boundary was intact", sess.Redials())
	}
}
