package channel

// SealRegResponse is the one-shot form of Sealer.SealRegResponse.
func SealRegResponse(key []byte, ctr uint64, res RegResult) ([]byte, error) {
	return oneShot(key, func(s *Sealer) ([]byte, error) { return s.SealRegResponse(ctr, res) })
}

// SealRegBatchResponse is the one-shot form of Sealer.SealRegBatchResponse.
func SealRegBatchResponse(key []byte, ctr uint64, res []RegResult) ([]byte, error) {
	return oneShot(key, func(s *Sealer) ([]byte, error) { return s.SealRegBatchResponse(ctr, res) })
}

// OpenRekeyRequest is the one-shot form of Sealer.OpenRekeyRequest.
func OpenRekeyRequest(key []byte, wantCtr uint64, frame []byte) (newKey []byte, newCtr uint64, err error) {
	s, err := NewSealer(key)
	if err != nil {
		return nil, 0, err
	}
	return s.OpenRekeyRequest(wantCtr, frame)
}

// SealRekeyResponse is the one-shot form of Sealer.SealRekeyResponse.
func SealRekeyResponse(key []byte, ctr uint64) ([]byte, error) {
	return oneShot(key, func(s *Sealer) ([]byte, error) { return s.SealRekeyResponse(ctr) })
}
