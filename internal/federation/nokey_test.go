package federation

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"salus/internal/accel"
	"salus/internal/core"
	"salus/internal/fleet"
	"salus/internal/sched"
)

var systemType = reflect.TypeOf((*core.System)(nil))

// keyCopies returns the path of every byte slice, byte array or string
// reachable from root that contains key, and how many *core.System values
// the walk reached. It follows pointers, interfaces, maps, slices and
// unexported fields, and stops at *core.System: what a System holds is
// split between its trust domains, which core's own walkers check.
func keyCopies(root any, key []byte) (found []string, systems int) {
	type visit struct {
		p uintptr
		t reflect.Type
	}
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
			if strings.Contains(v.String(), string(key)) {
				found = append(found, path)
			}
		case reflect.Slice, reflect.Array:
			if v.Type().Elem().Kind() == reflect.Uint8 {
				b := make([]byte, v.Len())
				for i := range b {
					b[i] = byte(v.Index(i).Uint())
				}
				if bytes.Contains(b, key) {
					found = append(found, path)
				}
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

// checkNoKey fails if root keeps a copy of key anywhere outside the
// systems it reaches, or if the walk reached no system at all (it would
// then be blind to the members a manager holds).
func checkNoKey(t *testing.T, name string, root any, key []byte) {
	t.Helper()
	found, systems := keyCopies(root, key)
	if systems == 0 {
		t.Fatalf("the walk of %s reached no core.System: it is blind", name)
	}
	for _, path := range found {
		t.Errorf("%s keeps the owner's data key at %s%s", name, name, path)
	}
}

// TestNoHostObjectKeepsTheOwnersKey: the owner's data key leaves the owner
// only into attested enclaves. After the owner boots a fleet in process and
// the fleet grows by every verb that boots a board — Add, Replace, Scale —
// neither the fleet manager nor its scheduler holds a copy of the key, and
// neither does a federation whose sibling shards were keyed by enclave
// hand-off.
func TestNoHostObjectKeepsTheOwnersKey(t *testing.T) {
	m, err := fleet.New(fleet.Config{Kernel: accel.Conv{}, DNAPrefix: "NOKEY"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	systems, err := m.SpawnN(2)
	if err != nil {
		t.Fatal(err)
	}
	key, err := sched.BootSharedParallel(systems)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range systems {
		if err := m.Adopt(sys); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Add(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Replace(systems[0].Device.DNA()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Scale(1); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Members()); got != 4 {
		t.Fatalf("fleet has %d boards, want 4", got)
	}
	checkNoKey(t, "fleet.Manager", m, key)
	checkNoKey(t, "sched.Scheduler", m.Scheduler(), key)

	d := buildTestFederation(t, LocalSpec{Shards: 3, DevicesPerShard: 1})
	for i := 0; ; i++ {
		keyed := 0
		for _, sh := range d.Fed.Stats().Shards {
			if sh.Keyed {
				keyed++
			}
		}
		if keyed == 3 {
			break
		}
		if i == 200 {
			t.Fatalf("%d of 3 shards keyed after %d routed jobs", keyed, i)
		}
		submitOne(t, d, "tenant", fmt.Sprintf("route-%d", i), int64(i))
	}
	checkNoKey(t, "Federation", d.Fed, d.Key)
}
