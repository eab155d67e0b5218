package main

import (
	"encoding/hex"
	"testing"

	"salus"
	"salus/internal/cryptoutil"
)

func TestCheckDigest(t *testing.T) {
	data := []byte("bitstream")
	h := cryptoutil.Digest(data)
	good := hex.EncodeToString(h[:])
	if err := checkDigest(data, good); err != nil {
		t.Fatalf("matching digest: %v", err)
	}
	other := cryptoutil.Digest([]byte("other"))
	for name, digest := range map[string]string{
		"short":     "abc",
		"odd hex":   good[:63],
		"not hex":   "zz" + good[2:],
		"truncated": good[:32],
		"mismatch":  hex.EncodeToString(other[:]),
	} {
		if err := checkDigest(data, digest); err == nil {
			t.Errorf("%s digest accepted", name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for name, want := range map[string]salus.DeviceProfile{
		"test": salus.TestDevice, "u200": salus.U200, "u250": salus.U250,
	} {
		if got, err := profileByName(name); err != nil || got.Name != want.Name {
			t.Errorf("%s: got %q, %v", name, got.Name, err)
		}
	}
	for _, name := range []string{"", "U200", "u280", "xctest"} {
		if _, err := profileByName(name); err == nil {
			t.Errorf("%q accepted", name)
		}
	}
}
