package main

import (
	"bytes"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestPayloadRoundTrip checks that a written payload verifies and that
// any changed byte, a wrong seq or a wrong writer is caught.
func TestPayloadRoundTrip(t *testing.T) {
	for _, size := range []int{payloadHeader, 1024, 16<<10 + 3} {
		p := make([]byte, size)
		fill(p, 42, 1, 7)
		stamp(p, 123, 456)
		if due, wrote, err := verify(p, 42, 1, 7); err != nil || due != 123 || wrote != 456 {
			t.Fatalf("size %d: verify = %d, %d, %v", size, due, wrote, err)
		}
		if _, _, err := verify(p, 42, 1, 8); err == nil {
			t.Errorf("size %d: wrong seq not caught", size)
		}
		if _, _, err := verify(p, 42, 2, 7); err == nil {
			t.Errorf("size %d: wrong writer not caught", size)
		}
		if _, _, err := verify(p, 43, 1, 7); err == nil && size > payloadHeader {
			t.Errorf("size %d: content of another seed not caught", size)
		}
		flips := []int{0, 4, 8} // writer, length and seq; the times are free data
		if size > payloadHeader {
			flips = append(flips, payloadHeader, size-1)
		}
		for _, i := range flips {
			q := append([]byte(nil), p...)
			q[i] ^= 0x40
			if _, _, err := verify(q, 42, 1, 7); err == nil {
				t.Errorf("size %d: flipped byte %d not caught", size, i)
			}
		}
	}
}

// TestDamagedSubstrateFinishes injects wire damage under video-16k: the
// run must end within its deadline, count the lost OSDUs as failed, and
// agree with the transport's own loss counter.
func TestDamagedSubstrateFinishes(t *testing.T) {
	w := workloads["video-16k"].(dataWorkload)
	w.damage = 0.003
	const window = 2 * time.Second
	start := time.Now()
	res, err := w.run(5, window, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if took, limit := time.Since(start), window+drainLimit+10*time.Second; took > limit {
		t.Errorf("damaged run took %v, deadline %v", took, limit)
	}
	if len(res.mismatches) > 0 {
		t.Fatalf("mismatches: %v", res.mismatches)
	}
	lost := int(res.layer["transport.osdus_lost"])
	t.Logf("attempted %d, failed %d, transport.osdus_lost %d, undelivered tail %d", res.attempted, res.failed, lost, res.tail)
	if res.failed == 0 || res.layer["bench.failed_ratio"] <= 0 {
		t.Fatalf("failed %d of %d under damage; want some", res.failed, res.attempted)
	}
	// The transport counts an OSDU lost when a later one overtakes it;
	// OSDUs after the last one delivered are failed but not yet lost.
	if res.failed != lost+res.tail {
		t.Errorf("failed %d, want transport.osdus_lost %d + undelivered tail %d", res.failed, lost, res.tail)
	}
}

// TestStallFailsRun corrupts every packet from 30% into each segment of
// a bulk-1k run, so no TPDU is acknowledged from then on and the writers
// block on full buffers. The run must still end on its deadline, leave a
// goroutine dump behind, count the slices in which nothing completed as
// 0 ops/s, and be reported incorrect.
func TestStallFailsRun(t *testing.T) {
	var dump bytes.Buffer
	diag = &dump
	defer func() { diag = os.Stderr }()
	w := workloads["bulk-1k"].(dataWorkload)
	const window = time.Second
	w.stallAfter = window / segments * 3 / 10
	start := time.Now()
	res, err := w.run(9, window, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if took, limit := time.Since(start), window+segments*drainLimit+10*time.Second; took > limit {
		t.Errorf("stalled run took %v, deadline %v", took, limit)
	}
	if len(res.mismatches) > 0 {
		t.Fatalf("mismatches: %v", res.mismatches)
	}
	t.Logf("stalls %d, failed %d of %d, ops_s %.1f", res.stalls, res.failed, res.attempted, res.e2e["ops_s"])
	if res.stalls != segments || res.failed == 0 || res.failed == res.attempted {
		t.Errorf("stalls %d, failed %d of %d; want %d stalls and some but not all OSDUs failed",
			res.stalls, res.failed, res.attempted, segments)
	}
	// Three of each segment's five slices come after the stall.
	if ops := res.e2e["ops_s"]; ops != 0 {
		t.Errorf("ops_s %.1f, want 0: most slices completed nothing", ops)
	}
	if !strings.Contains(dump.String(), "STALLED") || !strings.Contains(dump.String(), "goroutine ") {
		t.Errorf("no goroutine dump was taken at the stall")
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	out, err := report(res, res.e2e, sp.EndToEnd, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct {
		t.Errorf("a stalled run was reported correct")
	}
}

// TestShimTransparent runs a workload with and without the tracing shims
// and requires the same delivered OSDUs at every reader.
func TestShimTransparent(t *testing.T) {
	for _, name := range []string{"relay-fanout", "video-16k"} {
		t.Run(name, func(t *testing.T) {
			w := workloads[name].(dataWorkload)
			plain, err := w.run(3, time.Second, nil)
			if err != nil {
				t.Fatalf("untraced run: %v", err)
			}
			tr := newTracer("udpnet")
			if w.netem {
				tr = newTracer("netem")
			}
			traced, err := w.run(3, time.Second, tr)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			if plain.attempted != traced.attempted || plain.failed != 0 || traced.failed != 0 {
				t.Fatalf("attempted/failed %d/%d untraced, %d/%d traced",
					plain.attempted, plain.failed, traced.attempted, traced.failed)
			}
			if !reflect.DeepEqual(plain.delivered, traced.delivered) {
				t.Fatalf("delivered seq sets differ with the shim in place")
			}
			if len(traced.spans) == 0 {
				t.Fatalf("traced run recorded no spans")
			}
		})
	}
}

// TestSelfTime checks that a span's self time excludes what its child
// covers, and only the overlapping part.
func TestSelfTime(t *testing.T) {
	sp := []span{
		{ID: 0, Parent: -1, Name: "a", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "b", Start: 60, End: 160},
		{ID: 2, Parent: 1, Name: "c", Start: 160, End: 170},
	}
	st := selfTimes(sp)
	want := map[string][2]int64{"a": {60, 1}, "b": {100, 1}, "c": {10, 1}}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("self times %v, want %v", st, want)
	}
}

// TestHistQuantile compares the histogram's quantiles with those of the
// sorted values: they must agree within one bucket's width.
func TestHistQuantile(t *testing.T) {
	var h hist
	var xs []float64
	g := uint64(11)
	for i := 0; i < 20000; i++ {
		v := int64(splitmix(&g) % 5e6) // up to 5 ms in ns
		if i%10 == 0 {
			v = int64(i) % 50 // the exact range too
		}
		h.add(v)
		xs = append(xs, float64(v))
	}
	sort.Float64s(xs)
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 1} {
		got, want := h.quantile(q), quantile(xs, q)
		if d := got - want; d > want/64+1 || d < -want/64-1 {
			t.Errorf("q %.2f: histogram %.1f, sorted %.1f", q, got, want)
		}
	}
}
