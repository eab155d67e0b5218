package remote

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"salus/internal/accel"
	"salus/internal/bufpool"
	"salus/internal/core"
	"salus/internal/federation"
)

// poisonedView reports whether s reads as a view into a recycled frame:
// bufpool's poison, 0xA5, in every byte.
func poisonedView(s string) bool {
	return s != "" && strings.Trim(s, "\xa5") == ""
}

// keptStrings returns the path of every string reachable from root that
// match accepts, and how many *core.System values the walk reached. It
// follows pointers, interfaces, maps, slices and unexported fields, and
// stops at *core.System, whose state is split between trust domains and
// holds no routing key.
func keptStrings(root any, match func(string) bool) (found []string, systems int) {
	type visit struct {
		p uintptr
		t reflect.Type
	}
	systemType := reflect.TypeOf((*core.System)(nil))
	seen := map[visit]bool{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			if v.Type() == systemType {
				systems++
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
		case reflect.String:
			if match(v.String()) {
				found = append(found, fmt.Sprintf("%s = %q", path, v.String()))
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
				walk(it.Key(), path+"{}")
				walk(it.Value(), path+"[]")
			}
		}
	}
	walk(reflect.ValueOf(root), "")
	return found, systems
}

// TestGatewayKeepsNoRoutingKey: a job request's Key aliases its frame
// (rpc.Decoder.View), which the rpc server recycles once the handler has
// returned, so nothing the gateway reaches may keep it. With frames
// poisoned on recycling, fed-tenants-shaped jobs (a front tier over three
// shards of two boards, concurrent callers, every job under a session key
// of its own) run through the gateway; then a walk of the live Federation
// — its ring, shards, fleets and schedulers — finds no string equal to a
// key that was used (a kept copy, or an alias of a frame reused by a later
// request) and none that reads as poison (an alias of a recycled frame).
func TestGatewayKeepsNoRoutingKey(t *testing.T) {
	if !bufpool.Poison {
		bufpool.Poison = true
		t.Cleanup(func() { bufpool.Poison = false })
	}
	d, sess, _ := dialFederationDeployment(t, federation.LocalSpec{Shards: 3, DevicesPerShard: 2})

	const callers, jobs = 8, 24
	keys := map[string]bool{}
	for i := 0; i < callers*jobs; i++ {
		keys[fmt.Sprintf("t%02d/k%04d", i%16, i)] = true
	}
	w := accel.GenConv(16, 16, 4, 1)
	want, err := w.Kernel.Compute(w.Params, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < jobs; j++ {
				i := c*jobs + j
				out, _, err := sess.RunJob(fmt.Sprintf("t%02d/k%04d", i%16, i), "Conv", w.Params, w.Input)
				if err == nil && string(out) != string(want) {
					err = fmt.Errorf("job %d diverges from reference", i)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	found, systems := keptStrings(d.Fed, func(s string) bool { return keys[s] || poisonedView(s) })
	if systems == 0 {
		t.Fatal("the walk of the Federation reached no core.System: it is blind")
	}
	for _, path := range found {
		t.Errorf("the Federation keeps a routing key at Federation%s", path)
	}
}
