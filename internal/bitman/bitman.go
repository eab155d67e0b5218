// Package bitman is the bitstream manipulation tool of the reproduction —
// the equivalent of RapidWright / byteman in the paper (§2.3): it takes a
// readily compiled bitstream plus the hierarchical location of a cell in
// the generated netlist, and updates that cell's initialisation values
// directly at the bitstream level, without touching RTL or re-running
// place-and-route.
//
// The SM enclave uses it during deployment to inject the dynamically
// generated root of trust (Key_attest) and the session secrets into the CL
// bitstream (§4.2). Opening a bitstream performs a full parse with CRC and
// per-frame ECC validation, and serialisation rebuilds the container — the
// heavy path in the paper, where manipulation dominates the 18.8 s boot
// (Figure 9). The tool borrows the container it opened (bitstream.Decode):
// it never writes to it, and it must not change underneath an open Tool.
package bitman

import (
	"fmt"

	"salus/internal/bitstream"
	"salus/internal/netlist"
)

// Tool is an open manipulation session over one bitstream.
type Tool struct {
	im    *bitstream.Image
	edits int
}

// Open parses and validates an encoded plaintext bitstream.
func Open(encoded []byte) (*Tool, error) {
	im, err := bitstream.Decode(encoded)
	if err != nil {
		return nil, fmt.Errorf("bitman: %w", err)
	}
	return &Tool{im: im}, nil
}

// Inject writes value into the initial content of the cell at loc,
// starting at byte offset within the cell. The touched frames' ECC words
// are recomputed immediately.
func (t *Tool) Inject(loc netlist.Location, offset int, value []byte) error {
	if err := t.im.SetCellBytes(loc, offset, value); err != nil {
		return fmt.Errorf("bitman: inject %s+%d: %w", loc.Path, offset, err)
	}
	t.edits++
	return nil
}

// ReadCell reads n bytes of a cell's initial content — what a reverse
// engineer with a *plaintext* bitstream can always do, which is exactly why
// the manipulated bitstream must only ever leave the enclave encrypted.
func (t *Tool) ReadCell(loc netlist.Location, offset, n int) ([]byte, error) {
	b, err := t.im.CellBytes(loc, offset, n)
	if err != nil {
		return nil, fmt.Errorf("bitman: read %s+%d: %w", loc.Path, offset, err)
	}
	return b, nil
}

// Image exposes the underlying image (e.g. for digest computation).
func (t *Tool) Image() *bitstream.Image { return t.im }

// Serialize rebuilds the full container with a fresh global CRC.
func (t *Tool) Serialize() []byte { return t.im.Encode() }
