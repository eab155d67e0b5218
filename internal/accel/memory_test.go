package accel

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"salus/internal/cryptoutil"
)

// Device memory is allocated on first touch: a core holds only the range
// below its high-water mark, and everything above it reads as zero.

// held is the device memory a core has allocated.
func held(c *Core) int { return cap(c.mem) }

// TestNewCoreAllocatesLittle: a fresh core costs registers, not its 16 MiB
// window, so a fleet of idle partitions does not pin MemBytes each.
func TestNewCoreAllocatesLittle(t *testing.T) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c := NewCore(Conv{})
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(c)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 64<<10 {
		t.Errorf("NewCore allocated %d KiB, want < 64", got>>10)
	}
}

func TestUntouchedMemoryReadsZero(t *testing.T) {
	c := NewCore(Conv{})
	got := bytes.Repeat([]byte{0x5A}, 4096)
	if err := c.ReadMem(MemBytes-4096, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 4096)) {
		t.Error("untouched device memory did not read as zero")
	}
	if held(c) != 0 {
		t.Errorf("a read allocated %d bytes of device memory", held(c))
	}
}

func TestReadStraddlingHighWaterMark(t *testing.T) {
	c := NewCore(Conv{})
	data := bytes.Repeat([]byte{0xC3}, 100)
	if err := c.WriteMem(1000, data); err != nil {
		t.Fatal(err)
	}
	got := bytes.Repeat([]byte{0x5A}, 150)
	if err := c.ReadMem(1050, got); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{0xC3}, 50), make([]byte, 100)...)
	if !bytes.Equal(got, want) {
		t.Errorf("read across the high-water mark = %x, want 50 written bytes then zeros", got)
	}
	if held(c) >= 64<<10 {
		t.Errorf("a 100-byte write holds %d KiB of device memory", held(c)>>10)
	}
}

// TestEmptyAccessTouchesNothing: an empty DMA write and a run with empty
// input and output, all at the window's end, are in range and allocate no
// device memory.
func TestEmptyAccessTouchesNothing(t *testing.T) {
	c := NewCore(echoKernel{})
	if err := c.WriteMem(MemBytes, nil); err != nil {
		t.Fatal(err)
	}
	for reg, v := range map[uint32]uint64{RegInAddr: MemBytes, RegInLen: 0, RegOutAddr: MemBytes} {
		if err := c.WriteReg(reg, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteReg(RegCtrl, CtrlStart); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.ReadReg(RegStatus); st != StatusDone {
		t.Errorf("empty run at the window's end: status %d", st)
	}
	if held(c) != 0 {
		t.Errorf("empty accesses left the core holding %d bytes", held(c))
	}
}

func TestWriteAtLastByte(t *testing.T) {
	c := NewCore(Conv{})
	if held(c) != 0 {
		t.Fatalf("a fresh core holds %d bytes", held(c))
	}
	if err := c.WriteMem(MemBytes-1, []byte{0x42}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if err := c.ReadMem(MemBytes-2, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 0x42 {
		t.Errorf("read back %x, want 0042", got)
	}
	if held(c) != MemBytes {
		t.Errorf("device memory grew to %d bytes, want exactly MemBytes", held(c))
	}
}

func TestCorruptUntouchedMemory(t *testing.T) {
	c := NewCore(Conv{})
	if held(c) != 0 {
		t.Fatalf("a fresh core holds %d bytes", held(c))
	}
	if err := c.CorruptMem(5000); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if err := c.ReadMem(5000, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xFF {
		t.Errorf("corrupted untouched byte reads %#x, want 0xff", got[0])
	}
}

// TestKernelRunPastHighWaterMark: a run whose input lies partly above the
// mark sees zeros there — not what an earlier run left in the fabric's
// reused input buffer — in plain and in keyed mode.
func TestKernelRunPastHighWaterMark(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	run := func(c *Core, inAddr, inLen uint64) uint64 {
		t.Helper()
		for reg, v := range map[uint32]uint64{RegInAddr: inAddr, RegInLen: inLen, RegOutAddr: 0} {
			must(c.WriteReg(reg, v))
		}
		must(c.WriteReg(RegCtrl, CtrlStart))
		st, _ := c.ReadReg(RegStatus)
		return st
	}

	c := NewCore(echoKernel{})
	must(c.WriteMem(4096, bytes.Repeat([]byte{0xEE}, 8))) // mark at 4104
	for r, inAddr := range []uint64{4096, 4100} {
		if st := run(c, inAddr, 8); st != StatusDone {
			t.Fatalf("plain run %d: status %d", r, st)
		}
		got := make([]byte, 8)
		must(c.ReadMem(0, got))
		want := make([]byte, 8)
		copy(want, bytes.Repeat([]byte{0xEE}, int(4104-inAddr)))
		if !bytes.Equal(got, want) {
			t.Errorf("plain run %d: kernel saw %x, want %x", r, got, want)
		}
	}

	// Keyed: run 0 leaves 32 bytes of 0xEE in the fabric's input buffer.
	// Run 1's sealed 8-byte input is written but for its last byte, which
	// its plaintext is chosen to make zero, so it is past the mark: its tag
	// verifies only if that byte reads as zero, not as the 0xEE run 0 left
	// where the fabric assembles the burst.
	c = NewCore(echoKernel{})
	key, base := cryptoutil.RandomKey(16), cryptoutil.RandomKey(16)
	base[12], base[13], base[14], base[15] = 0, 0, 0, 0
	aead, err := cryptoutil.NewAEAD(key)
	must(err)
	must(c.WriteReg(RegKey1, binary.BigEndian.Uint64(key[0:8])))
	must(c.WriteReg(RegKey0, binary.BigEndian.Uint64(key[8:16])))
	must(c.WriteReg(RegIV1, binary.BigEndian.Uint64(base[0:8])))
	must(c.WriteReg(RegIV0, binary.BigEndian.Uint64(base[8:16])))
	job0 := DataJob{IV: JobIV(base, 0), InLen: 32, OutCap: 32}
	must(c.WriteMem(4096, SealInput(aead, &job0, bytes.Repeat([]byte{0xEE}, 32))))
	if st := run(c, 4096, 32); st != StatusDone {
		t.Fatalf("keyed run 0: status %d", st)
	}
	job1 := DataJob{IV: JobIV(base, 1), Index: 1, InLen: 8, OutCap: 8}
	plain := make([]byte, 8)
	var sealed []byte
	for i := uint64(0); ; i++ {
		if i == 1<<16 {
			t.Fatal("no plaintext seals to a zero last byte")
		}
		binary.BigEndian.PutUint64(plain, i)
		if sealed = SealInput(aead, &job1, plain); sealed[len(sealed)-1] == 0 {
			break
		}
	}
	must(c.WriteMem(8192, sealed[:len(sealed)-1])) // the mark falls one byte short
	if st := run(c, 8192, 8); st != StatusDone {
		t.Fatalf("keyed run 1: status %d: the byte past the mark did not read as zero", st)
	}
	got := make([]byte, 8)
	must(c.ReadMem(0, got))
	if !bytes.Equal(got, plain) {
		t.Errorf("keyed run 1: kernel saw %x, want %x", got, plain)
	}
}
