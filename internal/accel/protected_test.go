package accel

import (
	"bytes"
	"errors"
	"testing"

	"salus/internal/merkle"
)

func TestProtectedCoreRunsNormally(t *testing.T) {
	for _, k := range Kernels() {
		w, _ := TestWorkload(k.Name(), 13)
		core, err := NewProtectedCore(k)
		if err != nil {
			t.Fatal(err)
		}
		if !core.Protected() {
			t.Fatal("core not protected")
		}
		got := runJob(t, core, w, nil, nil)
		want, err := k.Compute(w.Params, w.Input)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: protected core output differs", k.Name())
		}
	}
}

func TestProtectedCoreDetectsDMACorruptionOnRead(t *testing.T) {
	core, err := NewProtectedCore(Conv{})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WriteMem(0, []byte("sensitive intermediate state")); err != nil {
		t.Fatal(err)
	}
	if err := core.CorruptMem(5); err != nil {
		t.Fatal(err)
	}
	if err := core.ReadMem(0, make([]byte, 16)); !errors.Is(err, merkle.ErrIntegrity) {
		t.Errorf("corrupted read: %v, want ErrIntegrity", err)
	}
}

func TestProtectedCoreDetectsCorruptionBeforeKernelRun(t *testing.T) {
	// Attack 2 of the threat model: the adversary flips bits in the input
	// buffer between DMA and kernel launch. The protected fetch refuses to
	// run on tampered data.
	core, err := NewProtectedCore(Conv{})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := TestWorkload("Conv", 3)
	if err := core.WriteMem(0, w.Input); err != nil {
		t.Fatal(err)
	}
	if err := core.CorruptMem(uint64(len(w.Input) / 2)); err != nil {
		t.Fatal(err)
	}
	for reg, v := range map[uint32]uint64{
		RegInAddr: 0, RegInLen: uint64(len(w.Input)), RegOutAddr: uint64(len(w.Input) + 4096),
		RegParam0: w.Params[0], RegParam1: w.Params[1], RegParam2: w.Params[2],
	} {
		if err := core.WriteReg(reg, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := core.WriteReg(RegCtrl, CtrlStart); err != nil {
		t.Fatal(err)
	}
	status, err := core.ReadReg(RegStatus)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusError {
		t.Errorf("status = %d, want error — kernel ran on tampered input", status)
	}
}

func TestUnprotectedCoreSilentOnCorruption(t *testing.T) {
	// The contrast case: without the integrity tree the same attack is
	// silent — exactly why the paper's threat model demands the developer
	// add protection.
	core := NewCore(Conv{})
	if core.Protected() {
		t.Fatal("plain core claims protection")
	}
	if err := core.WriteMem(0, []byte("sensitive intermediate state")); err != nil {
		t.Fatal(err)
	}
	if err := core.CorruptMem(5); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if err := core.ReadMem(0, got); err != nil {
		t.Fatalf("unprotected read errored: %v", err)
	}
	if bytes.Equal(got, []byte("sensitive interm")) {
		t.Error("corruption did not land")
	}
}

func TestCorruptMemBounds(t *testing.T) {
	core := NewCore(Conv{})
	if err := core.CorruptMem(MemBytes); !errors.Is(err, ErrMemRange) {
		t.Errorf("err = %v", err)
	}
}

// BenchmarkAblationMemoryIntegrity quantifies the protection cost the
// cited BMT works optimise: DMA writes with and without the tree.
func BenchmarkAblationMemoryIntegrity(b *testing.B) {
	data := make([]byte, 4096)
	b.Run("unprotected", func(b *testing.B) {
		core := NewCore(Conv{})
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if err := core.WriteMem(0, data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("protected", func(b *testing.B) {
		core, err := NewProtectedCore(Conv{})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if err := core.WriteMem(0, data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
