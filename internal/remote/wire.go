package remote

import "salus/internal/rpc"

// The four job messages carry their own binary form (rpc.WireEncoder /
// rpc.WireDecoder), so a sealed payload crosses the gateway as the bytes it
// is: no base64, no intermediate document. Every other message stays JSON.
// DESIGN.md, "Gateway protocol", has the layout; in short
//
//	routing   = i64 DeadlineMillis | string Kernel, Tenant, Class, Key
//	job       = 4 × u64 Params | section SealedInput
//	placement = u8 Spilled | string Shard
//
// with a request routing + job(s), a response placement + output(s), a batch
// counted by a u32. A decoded section, and a request's Key, alias the frame
// they arrived in (see rpc.Handler); every other string is an interned copy
// (rpc.Decoder.String). nil and empty are one value on this wire. Each decoder
// builds its value in composite literals whose fields are written, and so
// evaluated, in wire order.

// Smallest encodings of one batch element, bounding what a claimed count may
// make a decoder allocate.
const (
	minJobWire    = 4*8 + 4
	minResultWire = 2 + 4
)

func encodeRouting(e *rpc.Encoder, deadlineMillis int64, kernel, tenant, class, key string) {
	e.Uint64(uint64(deadlineMillis))
	for _, s := range [...]string{kernel, tenant, class, key} {
		e.String(s)
	}
}

func encodeJob(e *rpc.Encoder, params [4]uint64, sealedInput []byte) {
	for _, p := range params {
		e.Uint64(p)
	}
	e.Section(sealedInput)
}

func decodeJob(d *rpc.Decoder) BatchJob {
	return BatchJob{[4]uint64{d.Uint64(), d.Uint64(), d.Uint64(), d.Uint64()}, d.Section()}
}

func encodePlacement(e *rpc.Encoder, spilled bool, shard string) {
	var b byte
	if spilled {
		b = 1
	}
	e.Byte(b)
	e.String(shard)
}

// EncodeWire implements rpc.WireEncoder.
func (r JobRequest) EncodeWire(e *rpc.Encoder) {
	encodeRouting(e, r.DeadlineMillis, r.Kernel, r.Tenant, r.Class, r.Key)
	encodeJob(e, r.Params, r.SealedInput)
}

// DecodeWire implements rpc.WireDecoder.
func (r *JobRequest) DecodeWire(body []byte) error {
	d := rpc.NewDecoder(body)
	*r = JobRequest{DeadlineMillis: int64(d.Uint64()), Kernel: d.String(), Tenant: d.String(), Class: d.String(), Key: d.View()}
	j := decodeJob(&d)
	r.Params, r.SealedInput = j.Params, j.SealedInput
	return d.Done()
}

// EncodeWire implements rpc.WireEncoder.
func (r JobResponse) EncodeWire(e *rpc.Encoder) {
	encodePlacement(e, r.Spilled, r.Shard)
	e.Section(r.SealedOutput)
}

// DecodeWire implements rpc.WireDecoder.
func (r *JobResponse) DecodeWire(body []byte) error {
	d := rpc.NewDecoder(body)
	*r = JobResponse{Spilled: d.Byte() != 0, Shard: d.String(), SealedOutput: d.Section()}
	return d.Done()
}

// EncodeWire implements rpc.WireEncoder.
func (r BatchRequest) EncodeWire(e *rpc.Encoder) {
	encodeRouting(e, r.DeadlineMillis, r.Kernel, r.Tenant, r.Class, r.Key)
	e.Uint32(uint32(len(r.Jobs)))
	for _, j := range r.Jobs {
		encodeJob(e, j.Params, j.SealedInput)
	}
}

// DecodeWire implements rpc.WireDecoder.
func (r *BatchRequest) DecodeWire(body []byte) error {
	d := rpc.NewDecoder(body)
	*r = BatchRequest{DeadlineMillis: int64(d.Uint64()), Kernel: d.String(), Tenant: d.String(), Class: d.String(), Key: d.View(),
		Jobs: make([]BatchJob, d.Count(minJobWire))}
	for i := range r.Jobs {
		r.Jobs[i] = decodeJob(&d)
	}
	return d.Done()
}

// EncodeWire implements rpc.WireEncoder.
func (r BatchResponse) EncodeWire(e *rpc.Encoder) {
	encodePlacement(e, r.Spilled, r.Shard)
	e.Uint32(uint32(len(r.Results)))
	for _, res := range r.Results {
		e.String(res.Error)
		e.Section(res.SealedOutput)
	}
}

// DecodeWire implements rpc.WireDecoder.
func (r *BatchResponse) DecodeWire(body []byte) error {
	d := rpc.NewDecoder(body)
	*r = BatchResponse{Spilled: d.Byte() != 0, Shard: d.String(), Results: make([]BatchJobResult, d.Count(minResultWire))}
	for i := range r.Results {
		r.Results[i] = BatchJobResult{Error: d.String(), SealedOutput: d.Section()}
	}
	return d.Done()
}
