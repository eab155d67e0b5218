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
	for _, keyed := range []bool{false, true} {
		c := NewCore(echoKernel{})
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		key, base := make([]byte, 16), make([]byte, 16)
		if keyed {
			key, base = cryptoutil.RandomKey(16), cryptoutil.RandomKey(16)
			base[12], base[13], base[14], base[15] = 0, 0, 0, 0
			must(c.WriteReg(RegKey1, binary.BigEndian.Uint64(key[0:8])))
			must(c.WriteReg(RegKey0, binary.BigEndian.Uint64(key[8:16])))
			must(c.WriteReg(RegIV1, binary.BigEndian.Uint64(base[0:8])))
			must(c.WriteReg(RegIV0, binary.BigEndian.Uint64(base[8:16])))
		}
		must(c.WriteMem(4096, bytes.Repeat([]byte{0xEE}, 8))) // mark at 4104
		for run, inAddr := range []uint64{4096, 4100} {
			for reg, v := range map[uint32]uint64{RegInAddr: inAddr, RegInLen: 8, RegOutAddr: 0} {
				must(c.WriteReg(reg, v))
			}
			must(c.WriteReg(RegCtrl, CtrlStart))
			if st, _ := c.ReadReg(RegStatus); st != StatusDone {
				t.Fatalf("keyed=%v run %d: status %d", keyed, run, st)
			}
			got := make([]byte, 8)
			must(c.ReadMem(0, got))
			want := make([]byte, 8)
			copy(want, bytes.Repeat([]byte{0xEE}, int(4104-inAddr)))
			if keyed {
				iv := JobIV(base, uint32(run))
				var err error
				want, err = cryptoutil.XORKeyStreamCTR(key, iv[:], want)
				must(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("keyed=%v run %d: kernel saw %x, want %x", keyed, run, got, want)
			}
		}
	}
}
