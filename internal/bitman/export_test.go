package bitman

import "fmt"

// InjectByPath resolves the cell location from the image's own cell table
// and injects value at offset.
func (t *Tool) InjectByPath(path string, offset int, value []byte) error {
	loc, ok := t.im.Cell(path)
	if !ok {
		return fmt.Errorf("bitman: no cell %q in bitstream cell table", path)
	}
	return t.Inject(loc, offset, value)
}

// Edits returns the number of injections performed in this session.
func (t *Tool) Edits() int { return t.edits }
