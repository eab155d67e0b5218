// Package remote puts the Salus software stack on real sockets (§5.2,
// Figures 6 and 7): the manufacturer's key-distribution service and the
// cloud instance's attestation/job gateway become RPC servers, and the two
// trusted-side parties — the SM enclave (as key client) and the data owner
// (as verifier) — talk to them over TCP.
//
// There is one gateway and one owner session. Serve builds every gateway
// over a federation: a fixed pool (fleet.Fixed) or an elastic fleet is a
// region of one shard (federation.Single), a region is N. Dial opens the
// one Session, which attests the root shard once and then addresses sealed
// jobs by session key, whatever the topology behind the gateway. A session
// (like the SM enclave's key client) spreads its calls over a stripe of
// connections, one per processor, each redialed on its own (see conn).
//
// The transports are untrusted, exactly as in the paper: every sensitive
// payload that crosses them is independently protected (signed quotes,
// ECDH-sealed keys, AES-GCM-sealed job data), so a man in the middle can
// disrupt but never read or forge.
package remote

import (
	"salus/internal/fpga"
	"salus/internal/manufacturer"
	"salus/internal/rpc"
	"salus/internal/sgx"
)

// --- Manufacturer service ----------------------------------------------------

// KeyRequest is the wire form of a device-key request.
type KeyRequest struct {
	Quote sgx.Quote `json:"quote"`
	DNA   string    `json:"dna"`
}

// ServeManufacturer exposes the key-distribution service on addr
// (use "127.0.0.1:0" to pick a free port). It returns the server handle
// and the bound address.
func ServeManufacturer(svc *manufacturer.Service, addr string) (*rpc.Server, string, error) {
	srv := rpc.NewServer()
	srv.Handle("Manufacturer.RequestDeviceKey", rpc.Typed(func(in KeyRequest) (manufacturer.KeyResponse, error) {
		return svc.RequestDeviceKey(in.Quote, fpga.DNA(in.DNA))
	}))
	srv.Handle("Manufacturer.Root", rpc.Typed(func(struct{}) ([]byte, error) {
		return svc.Root(), nil
	}))
	return listen(srv, addr)
}

// KeyClient is the SM enclave's view of a remote manufacturer. It
// implements smapp.KeyService, and it survives transient transport
// failures on the shared redialing connection: a broken stream is re-dialed
// and the call retried (application-level rejections — wrong device,
// untrusted quote — are never retried).
type KeyClient struct{ conn *conn }

// DialManufacturer connects to a manufacturer server.
func DialManufacturer(addr string) (*KeyClient, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &KeyClient{conn: c}, nil
}

// RequestDeviceKey implements smapp.KeyService over the wire.
func (k *KeyClient) RequestDeviceKey(quote sgx.Quote, dna fpga.DNA) (manufacturer.KeyResponse, error) {
	var resp manufacturer.KeyResponse
	err := k.conn.call("Manufacturer.RequestDeviceKey", KeyRequest{Quote: quote, DNA: string(dna)}, &resp)
	return resp, err
}

// Root fetches the provisioning-authority root over the wire. Note: a real
// verifier obtains the root out of band (it IS the trust anchor); this
// endpoint exists for tooling convenience only.
func (k *KeyClient) Root() ([]byte, error) {
	var root []byte
	err := k.conn.call("Manufacturer.Root", struct{}{}, &root)
	return root, err
}

// Close releases the connection.
func (k *KeyClient) Close() error { return k.conn.close() }
