package core

import (
	"bytes"
	"testing"

	"salus/internal/accel"
	"salus/internal/channel"
	"salus/internal/cryptoutil"
	"salus/internal/shell"
)

// programTamper is a shell that, once armed, rewrites a job's register
// program on its way to the CL (bus tampering, attack 3 of §3.1): wherever
// the kernel parameters cross in the clear it turns an 8×8 job into a 4×16
// one (the same input length, so the kernel's input check passes), and it
// flips the low bit of the last byte of the program frame numbered flip
// (counting every frame that carries part of the program; -1 flips none).
type programTamper struct {
	shell.PassThrough
	armed      bool
	flip, seen int
}

func (a *programTamper) OnRequest(r []byte) []byte {
	switch channel.MsgType(r) {
	case channel.MsgDirectReg, channel.MsgSecureReg, channel.MsgSecureRegBatch:
	default:
		return r
	}
	if !a.armed {
		return r
	}
	out := append([]byte(nil), r...)
	if txn, err := channel.DecodeDirectReg(out); err == nil && txn.Write && txn.Data == 8 {
		switch txn.Addr {
		case accel.RegParam0:
			txn.Data = 4
		case accel.RegParam1:
			txn.Data = 16
		}
		out = channel.EncodeDirectReg(txn)
	}
	if a.seen == a.flip {
		out[len(out)-1] ^= 1
	}
	a.seen++
	return out
}

// TestLoneJobRegisterProgramIsAuthenticated: a shell that rewrites a lone
// sealed job's register program — its parameters from 8×8 to 4×16, and one
// bit of any one frame that carries the program — gets the job rejected,
// or the owner gets exactly the honest output. It never gets a different
// output sealed for the owner under a nil error.
func TestLoneJobRegisterProgramIsAuthenticated(t *testing.T) {
	w := accel.GenConv(8, 8, 2, 47)
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	// run boots a system behind a, arms it and runs the job once.
	run := func(a *programTamper) ([]byte, error) {
		r := newSealedRig(t, func(c *SystemConfig) { c.Interceptor = a })
		a.armed = true
		out, err := r.RunJobSealed("Conv", w.Params, r.seal(t, w.Input))
		if err != nil {
			return nil, err
		}
		return cryptoutil.Open(r.key, out, []byte("job-output"))
	}
	rewrite := &programTamper{flip: -1}
	got, err := run(rewrite)
	if rewrite.seen == 0 {
		t.Fatal("the job put no register program on the bus")
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Errorf("parameter rewrite: a %d-byte output that is not the job's (%d bytes) under a nil error", len(got), len(want))
	}
	for n := 0; n < rewrite.seen; n++ {
		got, err := run(&programTamper{flip: n})
		if err == nil && !bytes.Equal(got, want) {
			t.Errorf("parameter rewrite and a bit flip in program frame %d of %d: a wrong output under a nil error", n, rewrite.seen)
		}
	}
}
