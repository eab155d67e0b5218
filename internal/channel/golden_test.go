package channel

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// goldenFramesPath holds the hex of every single-frame vector below, as the
// per-call framing produced it before single frames moved onto the
// expanded-once Sealer. The wire must not move by a byte.
const goldenFramesPath = "testdata/single_frames.golden"

// goldenKey is the fixed Key_session every vector is sealed under.
var goldenKey = []byte{
	0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
	0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,
}

// goldenNewKey is the rotation target of the rekey vectors.
var goldenNewKey = []byte{
	0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7,
	0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd, 0xfe, 0xff,
}

const goldenNewCtr = 0x0000123456789abc

// goldenReg is one secure register vector: a request sealed at ctr, and the
// response to it sealed at the same counter.
type goldenReg struct {
	name string
	ctr  uint64
	txn  RegTxn
	res  RegResult
}

var goldenRegs = []goldenReg{
	{"write", 0x0001020304050607, RegTxn{Write: true, Addr: 0x50, Data: 0x1122334455667788}, RegResult{Data: 0x1122334455667788, OK: true}},
	{"read", 1<<47 | 5, RegTxn{Addr: 0x08}, RegResult{Data: 1, OK: true}},
	{"zero", 0, RegTxn{}, RegResult{}},
	{"max", ^uint64(0), RegTxn{Write: true, Addr: ^uint32(0), Data: ^uint64(0)}, RegResult{Data: ^uint64(0), OK: true}},
}

// goldenRekeyCtr is the counter the rekey vectors ride.
const goldenRekeyCtr = 42

// loadGoldenFrames parses the golden file: one "name hex" pair per line.
func loadGoldenFrames(t *testing.T) map[string][]byte {
	t.Helper()
	raw, err := os.ReadFile(goldenFramesPath)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, h, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("golden line %q: want \"name hex\"", line)
		}
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		out[name] = b
	}
	return out
}

// singleFramer is the single-frame half of the secure channel, as either
// the package-level one-shot functions or one Sealer's methods provide it.
type singleFramer struct {
	sealReq    func(ctr uint64, txn RegTxn) ([]byte, error)
	openReq    func(ctr uint64, frame []byte) (RegTxn, error)
	sealResp   func(ctr uint64, res RegResult) ([]byte, error)
	openResp   func(ctr uint64, frame []byte) (RegResult, error)
	sealRekey  func(ctr uint64, newKey []byte, newCtr uint64) ([]byte, error)
	openRekey  func(ctr uint64, frame []byte) ([]byte, uint64, error)
	sealRekeyR func(ctr uint64) ([]byte, error)
	openRekeyR func(ctr uint64, frame []byte) error
}

// oneShotFramer frames under key with the package-level functions.
func oneShotFramer(key []byte) singleFramer {
	return singleFramer{
		sealReq:    func(ctr uint64, txn RegTxn) ([]byte, error) { return SealRegRequest(key, ctr, txn) },
		openReq:    func(ctr uint64, f []byte) (RegTxn, error) { return OpenRegRequest(key, ctr, f) },
		sealResp:   func(ctr uint64, res RegResult) ([]byte, error) { return SealRegResponse(key, ctr, res) },
		openResp:   func(ctr uint64, f []byte) (RegResult, error) { return OpenRegResponse(key, ctr, f) },
		sealRekey:  func(ctr uint64, nk []byte, nc uint64) ([]byte, error) { return SealRekeyRequest(key, ctr, nk, nc) },
		openRekey:  func(ctr uint64, f []byte) ([]byte, uint64, error) { return OpenRekeyRequest(key, ctr, f) },
		sealRekeyR: func(ctr uint64) ([]byte, error) { return SealRekeyResponse(key, ctr) },
		openRekeyR: func(ctr uint64, f []byte) error { return OpenRekeyResponse(key, ctr, f) },
	}
}

// checkGoldenFrames seals every vector with f and compares the bytes with
// the golden file, then opens every golden frame with f and checks that the
// vector comes back.
func checkGoldenFrames(t *testing.T, f singleFramer) {
	t.Helper()
	golden := loadGoldenFrames(t)
	check := func(name string, frame []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, ok := golden[name]
		if !ok {
			t.Fatalf("%s: no golden entry", name)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("%s:\n got    %x\n golden %x", name, frame, want)
		}
		return want
	}
	for _, v := range goldenRegs {
		frame, err := f.sealReq(v.ctr, v.txn)
		want := check("req/"+v.name, frame, err)
		if txn, err := f.openReq(v.ctr, want); err != nil || txn != v.txn {
			t.Errorf("req/%s: open = %+v, %v; want %+v", v.name, txn, err, v.txn)
		}
		frame, err = f.sealResp(v.ctr, v.res)
		want = check("resp/"+v.name, frame, err)
		if res, err := f.openResp(v.ctr, want); err != nil || res != v.res {
			t.Errorf("resp/%s: open = %+v, %v; want %+v", v.name, res, err, v.res)
		}
	}
	frame, err := f.sealRekey(goldenRekeyCtr, goldenNewKey, goldenNewCtr)
	want := check("rekey/req", frame, err)
	nk, nc, err := f.openRekey(goldenRekeyCtr, want)
	if err != nil || !bytes.Equal(nk, goldenNewKey) || nc != goldenNewCtr {
		t.Errorf("rekey/req: open = %x, %#x, %v", nk, nc, err)
	}
	frame, err = f.sealRekeyR(goldenRekeyCtr)
	want = check("rekey/resp", frame, err)
	if err := f.openRekeyR(goldenRekeyCtr, want); err != nil {
		t.Errorf("rekey/resp: open: %v", err)
	}
}

// TestSingleFrameBytesAreGolden pins the single-frame secure channel bit
// for bit through the package-level functions.
func TestSingleFrameBytesAreGolden(t *testing.T) {
	checkGoldenFrames(t, oneShotFramer(goldenKey))
}
