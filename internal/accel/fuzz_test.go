package accel

import (
	"bytes"
	"encoding/binary"
	"testing"

	"salus/internal/cryptoutil"
)

// FuzzKernelOutputCap: for any parameters and input, every kernel's output
// bound stays inside device memory without panicking, and whenever Compute
// accepts the input its output fits the bound. The host sizes each job's
// device-memory slot by OutputCap, so an output past it would overwrite the
// next job's input.
func FuzzKernelOutputCap(f *testing.F) {
	for _, k := range Kernels() {
		w, _ := TestWorkload(k.Name(), 1)
		f.Add(w.Params[0], w.Params[1], w.Params[2], w.Params[3], w.Input)
	}
	f.Add(uint64(1)<<62, uint64(4), uint64(1), uint64(0), []byte{})
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), make([]byte, 18))
	f.Fuzz(func(t *testing.T, p0, p1, p2, p3 uint64, in []byte) {
		// Keep every Compute cheap: NNSearch is quadratic in its input.
		in = in[:min(len(in), 8192)]
		params := [4]uint64{p0, p1, p2, p3}
		for _, k := range Kernels() {
			limit := k.OutputCap(params, len(in))
			if limit < 0 || limit > MemBytes {
				t.Fatalf("%s: OutputCap(%#x, %d) = %d, outside [0, %d]", k.Name(), params, len(in), limit, MemBytes)
			}
			out, err := k.Compute(params, in)
			if err == nil && len(out) > limit {
				t.Fatalf("%s: Compute(%#x, %d bytes) returned %d bytes, OutputCap %d", k.Name(), params, len(in), len(out), limit)
			}
		}
	})
}

// FuzzKernelAppendCompute: for any parameters and input, every kernel's
// AppendCompute into a reused buffer full of stale 0xA5 bytes returns what
// Compute returns, byte for byte, whether the buffer has room for less
// than, exactly or more than the output, and keeps the bytes dst already
// held. The fabric computes every run into one buffer of its own, so a byte
// a kernel left unwritten would carry the previous run's output into this
// one's.
func FuzzKernelAppendCompute(f *testing.F) {
	for _, k := range Kernels() {
		w, _ := TestWorkload(k.Name(), 1)
		f.Add(w.Params[0], w.Params[1], w.Params[2], w.Params[3], w.Input)
	}
	f.Add(uint64(16), uint64(16), uint64(4), uint64(0), make([]byte, 16*16*4*2))
	f.Add(uint64(3)<<32|3, uint64(0), uint64(1)<<16, uint64(0), make([]byte, 9))
	f.Fuzz(func(t *testing.T, p0, p1, p2, p3 uint64, in []byte) {
		// Keep every Compute cheap: NNSearch is quadratic in its input.
		in = in[:min(len(in), 8192)]
		params := [4]uint64{p0, p1, p2, p3}
		var dst []byte
		for _, k := range Kernels() {
			want, err := k.Compute(params, in)
			if err != nil {
				if _, err := k.AppendCompute(dst[:0], params, in); err == nil {
					t.Fatalf("%s: AppendCompute accepted what Compute refused", k.Name())
				}
				continue
			}
			const prefix = 3
			for _, room := range []int{len(want) / 2, len(want), len(want) + 64} {
				dst = bytes.Repeat([]byte{0xA5}, prefix+room)
				got, err := k.AppendCompute(dst[:0], params, in)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: AppendCompute into room for %d of %d bytes differs from Compute (err %v)", k.Name(), room, len(want), err)
				}
				dst = bytes.Repeat([]byte{0xA5}, prefix+room)
				got, err = k.AppendCompute(dst[:prefix], params, in)
				if err != nil || !bytes.Equal(got[:prefix], dst[:prefix]) || !bytes.Equal(got[prefix:], want) {
					t.Fatalf("%s: AppendCompute behind %d held bytes, room for %d of %d, differs from Compute (err %v)", k.Name(), prefix, room, len(want), err)
				}
			}
		}
	})
}

// countingKernel counts the runs that reached its kernel.
type countingKernel struct {
	Kernel
	calls int
}

func (k *countingKernel) AppendCompute(dst []byte, params [4]uint64, input []byte) ([]byte, error) {
	k.calls++
	return k.Kernel.AppendCompute(dst, params, input)
}

// FuzzDataPlaneOpen: the fabric runs a keyed job only on exactly the input
// the host sealed for it. Starting from an honest sealed input and its
// registers, the fuzzer XORs a mask into one view of everything the data
// plane binds — the sealed bytes (ciphertext and tag), the four
// parameters, the input length, the output address, and the job index the
// input was sealed for. Any change ends in StatusIntegrity with the kernel
// not run; the unchanged case is Kernel.Compute's output, its tag checked
// as the host checks it.
func FuzzDataPlaneOpen(f *testing.F) {
	key := []byte("0123456789abcdef")
	base := []byte("fedcba9876540000")
	base[12], base[13], base[14], base[15] = 0, 0, 0, 0
	aead, err := cryptoutil.NewAEAD(key)
	if err != nil {
		f.Fatal(err)
	}
	w := GenConv(6, 6, 2, 1)
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		f.Fatal(err)
	}
	honest := DataJob{IV: JobIV(base, 0), Params: w.Params, InLen: uint64(len(w.Input)), OutAddr: 4096,
		OutCap: uint64(w.Kernel.OutputCap(w.Params, len(w.Input)))}
	sealed := SealInput(aead, &honest, w.Input)

	// The view: sealed bytes, then params (32 B), the input length's low
	// 2 bytes, the output address's low 3 bytes and the job index (4 B),
	// all big-endian. Masks on the lengths stay in range, so only the data
	// plane can refuse them.
	n := len(sealed)
	view := append([]byte(nil), sealed...)
	for _, p := range w.Params {
		view = binary.BigEndian.AppendUint64(view, p)
	}
	view = binary.BigEndian.AppendUint16(view, uint16(honest.InLen))
	view = append(view, byte(honest.OutAddr>>16), byte(honest.OutAddr>>8), byte(honest.OutAddr))
	view = binary.BigEndian.AppendUint32(view, honest.Index)

	f.Add(uint32(0), []byte{})
	f.Add(uint32(3), []byte{0x01})                      // ciphertext
	f.Add(uint32(n-1), []byte{0x80})                    // tag
	f.Add(uint32(n+7), []byte{0x01})                    // a parameter
	f.Add(uint32(n+32), []byte{0x00, 0x10})             // the input length
	f.Add(uint32(n+34), []byte{0x00, 0x00, 0x40})       // the output address
	f.Add(uint32(n+37), []byte{0x00, 0x00, 0x00, 0x01}) // the job index
	f.Fuzz(func(t *testing.T, at uint32, mask []byte) {
		v := append([]byte(nil), view...)
		for i, m := range mask {
			v[(int(at%uint32(len(v)))+i)%len(v)] ^= m
		}
		changed := !bytes.Equal(v, view)
		regs := v[n:]
		var params [4]uint64
		for i := range params {
			params[i] = binary.BigEndian.Uint64(regs[8*i:])
		}
		inLen := honest.InLen&^0xFFFF | uint64(binary.BigEndian.Uint16(regs[32:]))
		outAddr := honest.OutAddr&^0xFFFFFF | uint64(regs[34])<<16 | uint64(regs[35])<<8 | uint64(regs[36])
		mem := sealed
		if idx := binary.BigEndian.Uint32(regs[37:]); idx != honest.Index {
			other := honest
			other.IV, other.Index = JobIV(base, idx), idx
			mem = SealInput(aead, &other, w.Input)
		}
		mem = append([]byte(nil), mem...)
		for i := range mem {
			mem[i] ^= v[i] ^ view[i]
		}

		k := &countingKernel{Kernel: w.Kernel}
		c := NewCore(k)
		for reg, val := range map[uint32]uint64{
			RegKey1: binary.BigEndian.Uint64(key[0:]), RegKey0: binary.BigEndian.Uint64(key[8:]),
			RegIV1: binary.BigEndian.Uint64(base[0:]), RegIV0: binary.BigEndian.Uint64(base[8:]),
			RegInAddr: 0, RegInLen: inLen, RegOutAddr: outAddr,
			RegParam0: params[0], RegParam1: params[1], RegParam2: params[2], RegParam3: params[3],
		} {
			if err := c.WriteReg(reg, val); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WriteMem(0, mem); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteReg(RegCtrl, CtrlStart); err != nil {
			t.Fatal(err)
		}
		st, _ := c.ReadReg(RegStatus)
		if changed {
			if st != StatusIntegrity || k.calls != 0 {
				t.Fatalf("changed view: status %d after %d kernel runs, want %d after none", st, k.calls, StatusIntegrity)
			}
			return
		}
		outLen, _ := c.ReadReg(RegOutLen)
		if st != StatusDone || k.calls != 1 {
			t.Fatalf("honest job: status %d after %d kernel runs", st, k.calls)
		}
		got := make([]byte, outLen+TagSize, outLen+OutputSlack)
		if err := c.ReadMem(outAddr, got); err != nil {
			t.Fatal(err)
		}
		var d DataPlane
		out, err := d.OpenOutput(aead, &honest, sealed[n-TagSize:], got, w.Kernel.EncryptOutput())
		if err != nil || !bytes.Equal(out, want) {
			t.Fatalf("honest job: output differs from Compute (%v)", err)
		}
	})
}
