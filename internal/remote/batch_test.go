package remote

import (
	"bytes"
	"testing"

	"salus/internal/accel"
)

// TestClusterRunBatch drives the whole batched data path end to end over
// real sockets: one RPC frame carries every sealed job up, the scheduler
// runs them through core's batched secure path, and one frame carries
// every sealed result back.
func TestClusterRunBatch(t *testing.T) {
	d := newClusterDeployment(t, 2, accel.Conv{})
	sess, err := DialCluster(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}

	const jobs = 11
	inputs := make([]BatchInput, jobs)
	want := make([][]byte, jobs)
	for i := range inputs {
		w := accel.GenConv(4+i%3, 4, 1, int64(i))
		inputs[i] = BatchInput{Params: w.Params, Input: w.Input}
		want[i], err = w.Kernel.Compute(w.Params, w.Input)
		if err != nil {
			t.Fatal(err)
		}
	}
	results, err := sess.RunBatch("Conv", inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != jobs {
		t.Fatalf("%d results for %d jobs", len(results), jobs)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if !bytes.Equal(r.Output, want[i]) {
			t.Errorf("job %d output diverges from reference", i)
		}
	}

	var total uint64
	for _, ds := range d.sch.Stats() {
		total += ds.Completed
	}
	if total != jobs {
		t.Errorf("cluster completed %d jobs, want %d", total, jobs)
	}
}

// TestClusterRunBatchPerJobErrors: a job too large for the pipelined
// buffer half fails alone — its batch-mates still run, and the failure
// arrives as that job's error, not a whole-batch rejection.
func TestClusterRunBatchPerJobErrors(t *testing.T) {
	d := newClusterDeployment(t, 1, accel.Conv{})
	sess, err := DialCluster(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}

	w := accel.GenConv(4, 4, 1, 7)
	// Slot (input + the kernel's output cap) exceeds the 8 MiB half.
	huge := accel.GenConv(1200, 1200, 1, 8)
	results, err := sess.RunBatch("Conv", []BatchInput{
		{Params: w.Params, Input: w.Input},
		{Params: huge.Params, Input: huge.Input},
		{Params: w.Params, Input: w.Input},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Err == nil {
		t.Error("oversize job did not fail")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("sibling job %d sunk: %v", i, results[i].Err)
		}
	}
}

// TestClusterRunBatchRequiresAttestation mirrors the single-job guard.
func TestClusterRunBatchRequiresAttestation(t *testing.T) {
	d := newClusterDeployment(t, 1, accel.Conv{})
	sess, err := DialCluster(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	w := accel.GenConv(4, 4, 1, 1)
	if _, err := sess.RunBatch("Conv", []BatchInput{{Params: w.Params, Input: w.Input}}); err == nil {
		t.Fatal("unattested RunBatch succeeded")
	}
}
