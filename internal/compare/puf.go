package compare

import (
	"encoding/binary"
	"errors"
	"sync"

	"salus/internal/cryptoutil"
	"salus/internal/siphash"
)

// The SGX-FPGA-style root of trust of Table 1's first row (§3.2): a
// physically unclonable function whose challenge-response pairs (CRPs),
// pre-recorded in a database, attest the device.
//
// The baseline makes Table 1's drawback executable: because the PUF is
// unique per device, the developer must operate on the very FPGA board the
// user will rent to pre-generate a CRP database — coupling the development
// phase to the deployment phase, which contradicts cloud usage.

var (
	// errCRPExhausted means the database has no unused CRPs left — each
	// pair is single-use, or an observer could replay responses.
	errCRPExhausted = errors.New("puf: CRP database exhausted")
	// errPUFMismatch means the device's response did not match the
	// recorded one: wrong device, or a tampered response.
	errPUFMismatch = errors.New("puf: response mismatch")
)

// puf models one device's arbiter PUF: a keyed pseudorandom mapping from
// challenges to responses, where the "key" stands for the uncontrollable
// silicon variations unique to this die. It is unclonable by construction:
// the secret never leaves the device and cannot be chosen.
type puf struct {
	silicon []byte // the die's intrinsic randomness
}

// newPUF fabricates a PUF (at silicon manufacturing; every call is a new
// die).
func newPUF() *puf {
	return &puf{silicon: cryptoutil.RandomKey(16)}
}

// evaluate computes the response to a challenge. Physically this is only
// possible with the board in hand (or with logic on the fabric) — callers
// model either the developer's lab bench or the on-CL evaluation path.
func (p *puf) evaluate(challenge uint64) uint64 {
	var msg [8]byte
	binary.BigEndian.PutUint64(msg[:], challenge)
	return siphash.Sum64(p.silicon, msg[:])
}

// crp is one recorded challenge-response pair.
type crp struct {
	challenge uint64
	response  uint64
}

// crpDatabase is the developer-produced CRP store for ONE device. It must
// be generated with physical access to that exact device.
type crpDatabase struct {
	mu    sync.Mutex
	pairs []crp
	next  int
}

// enroll generates n fresh CRPs against the device — the step that forces
// the developer onto the user's rented board.
func enroll(p *puf, n int) *crpDatabase {
	db := &crpDatabase{pairs: make([]crp, n)}
	for i := range db.pairs {
		ch := binary.BigEndian.Uint64(cryptoutil.RandomKey(8))
		db.pairs[i] = crp{challenge: ch, response: p.evaluate(ch)}
	}
	return db
}

// nextChallenge draws the next unused challenge.
func (db *crpDatabase) nextChallenge() (uint64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.next >= len(db.pairs) {
		return 0, errCRPExhausted
	}
	return db.pairs[db.next].challenge, nil
}

// verify checks a device response against the pending CRP and consumes it.
func (db *crpDatabase) verify(response uint64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.next >= len(db.pairs) {
		return errCRPExhausted
	}
	want := db.pairs[db.next].response
	db.next++
	if response != want {
		return errPUFMismatch
	}
	return nil
}

// pufAttest runs one CRP round against a device-side evaluator (the CL's
// PUF access path): draw a challenge, evaluate on-device, verify.
func pufAttest(db *crpDatabase, evaluate func(uint64) uint64) error {
	ch, err := db.nextChallenge()
	if err != nil {
		return err
	}
	return db.verify(evaluate(ch))
}
