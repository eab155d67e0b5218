package core

import (
	"bytes"
	"crypto/cipher"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"salus/internal/accel"
	"salus/internal/channel"
	"salus/internal/fpga"
	"salus/internal/manufacturer"
	"salus/internal/sgx"
	"salus/internal/shell"
	"salus/internal/simtime"
	"salus/internal/trace"
)

var (
	blockType  = reflect.TypeOf((*cipher.Block)(nil)).Elem()
	aeadType   = reflect.TypeOf((*cipher.AEAD)(nil)).Elem()
	sealerType = reflect.TypeOf((*channel.Sealer)(nil))

	// The walk stops at what the tenant shares with others or does not own:
	// the device (whose CL holds the fabric's own keys), the shell, the
	// manufacturer, the host platform, the clock, the trace and the
	// developer's package.
	notTenantState = map[reflect.Type]bool{
		reflect.TypeOf((*fpga.Device)(nil)):          true,
		reflect.TypeOf((*shell.Shell)(nil)):          true,
		reflect.TypeOf((*manufacturer.Service)(nil)): true,
		reflect.TypeOf((*sgx.Platform)(nil)):         true,
		reflect.TypeOf((*simtime.Clock)(nil)):        true,
		reflect.TypeOf((*trace.Log)(nil)):            true,
		reflect.TypeOf((*CLPackage)(nil)):            true,
	}
)

// keySchedules returns the path of every expanded key schedule — a
// cipher.Block, a cipher.AEAD or a *channel.Sealer — reachable from root
// through the tenant's own state.
func keySchedules(root any) []string {
	var found []string
	type visit struct {
		p uintptr
		t reflect.Type
	}
	seen := map[visit]bool{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Interface:
			if v.IsNil() {
				return
			}
			if t := v.Elem().Type(); t.Implements(blockType) || t.Implements(aeadType) || t == sealerType {
				found = append(found, path)
				return
			}
			walk(v.Elem(), path)
		case reflect.Pointer:
			if v.IsNil() || notTenantState[v.Type()] {
				return
			}
			if v.Type() == sealerType {
				found = append(found, path)
				return
			}
			k := visit{v.Pointer(), v.Type()}
			if seen[k] {
				return
			}
			seen[k] = true
			walk(v.Elem(), path)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			if v.Type().Elem().Kind() == reflect.Uint8 {
				return
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value(), path+"[]")
			}
		}
	}
	walk(reflect.ValueOf(root), "System")
	return found
}

// TestReclaimDropsEveryKeySchedule: a key expanded once lives exactly as
// long as its key. After jobs have warmed every cache — the user enclave's
// data-key AEAD, which the data plane runs under too, and the SM enclave's
// channel Sealer — Reclaim leaves none of them reachable from the System,
// its user enclave or its SM enclave, and the next sealed job fails.
func TestReclaimDropsEveryKeySchedule(t *testing.T) {
	r := newSealedRig(t)
	w := accel.GenConv(16, 16, 4, 1)
	sealed := r.seal(t, w.Input)
	r.run(t, w, sealed)
	if _, err := r.RunJobSealedBatch("Conv", []SealedJob{{Params: w.Params, Input: sealed}}); err != nil {
		t.Fatal(err)
	}

	warm := keySchedules(r.System)
	for _, owner := range []string{"System.User.dataAEAD", "System.User.", "System.SM."} {
		hit := false
		for _, p := range warm {
			hit = hit || strings.HasPrefix(p, owner)
		}
		if !hit {
			t.Fatalf("no key schedule under %s before Reclaim (found %v): the walk is blind", owner, warm)
		}
	}

	r.Reclaim()
	if left := keySchedules(r.System); len(left) != 0 {
		t.Errorf("key schedules reachable after Reclaim: %v", left)
	}
	if _, err := r.RunJobSealed("Conv", w.Params, sealed); err == nil {
		t.Error("a sealed job ran after Reclaim")
	}
}

// heldSlices returns the path of every slice with capacity that the System
// value itself holds (its own fields and the structs and arrays inside
// them; pointers are not followed — the enclaves have their own walk).
func heldSlices(s *System) []string {
	var found []string
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Slice:
			if v.Cap() > 0 {
				found = append(found, path)
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		}
	}
	walk(reflect.ValueOf(s).Elem(), "System")
	return found
}

// TestReclaimDropsEveryJobScratch: besides key schedules, Reclaim drops
// every buffer the job path reuses — the DMA burst, the register frame, the
// register program and results (which carry an epoch's key words) and the
// sealed-input plaintext scratch, which it zeroes first.
func TestReclaimDropsEveryJobScratch(t *testing.T) {
	r := newSealedRig(t)
	w := accel.GenConv(16, 16, 4, 1)
	sealed := r.seal(t, w.Input)
	r.run(t, w, sealed)
	if _, err := r.RunJobSealedBatch("Conv", []SealedJob{{Params: w.Params, Input: sealed}}); err != nil {
		t.Fatal(err)
	}
	warm := strings.Join(heldSlices(r.System), " ")
	for _, f := range []string{"System.burst", "System.regFrame", "System.plain", "System.batchTxns", "System.batchRes"} {
		if !strings.Contains(warm, f) {
			t.Fatalf("%s holds nothing before Reclaim (held: %s): the walk is blind", f, warm)
		}
	}
	plain := r.plain[:cap(r.plain)]
	copy(plain, w.Input) // as if a call had left plaintext behind

	r.Reclaim()
	if left := heldSlices(r.System); len(left) != 0 {
		t.Errorf("job scratch held after Reclaim: %v", left)
	}
	if !bytes.Equal(plain, make([]byte, len(plain))) {
		t.Error("Reclaim dropped the plaintext scratch without zeroing it")
	}
}
