// Command perfbench is the end-to-end benchmark of the CM transport. Each
// workload drives the whole path app → cbuf → transport → substrate →
// transport → cbuf → app from one process and checks every OSDU it
// delivers. Run it through run.py from the repository root:
//
//	python3 perfbench/run.py --workload video-16k --seed 7 --seconds 12 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it first
// makes a short untraced reference run, then a traced run with
// pass-through shims around the substrate and the reservation manager; it
// prints the per-layer metrics, the tracing overhead and a self-time
// report, and writes every span to --trace-dir. The last line of standard
// output is always one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"cmtos/internal/qos"
)

// workload is one named set of inputs.
type workload interface {
	run(seed uint64, window time.Duration, tr *tracer) (*runResult, error)
}

// workloads are the benchmark's inputs; BENCHMARK.json records why each
// was chosen.
var workloads = map[string]workload{
	"bulk-1k": dataWorkload{vcs: 2, class: qos.ClassDetectCorrectIndicate,
		size: 1024, contract: 4000, gapFree: true},
	"video-16k": dataWorkload{vcs: 2, class: qos.ClassDetectIndicate,
		size: 16 << 10, contract: 250, offered: 200},
	"relay-fanout": dataWorkload{netem: true, vcs: 1, class: qos.ClassDetectIndicate,
		size: 1024, contract: 250, offered: 200, fanout: 8, gapFree: true},
	"churn": churnWorkload{batch: 1500},
}

// hardLimit ends a run that is still going long after every bounded wait
// should have ended it; it stays below the launcher's own limit.
const hardLimit = 150 * time.Second

// specFile lists the metrics; run.py runs the program from the
// repository root, where it lies.
const specFile = "BENCHMARK.json"

// metricDef is one metric of BENCHMARK.json, the one list of the metrics
// the benchmark reports, by name and unit.
type metricDef struct{ Name, Unit string }

type spec struct {
	EndToEnd []metricDef `json:"end_to_end"` // what a user sees, from untraced runs
	PerLayer []metricDef `json:"per_layer"`  // from the traced run; 0 where a layer is off the path
}

func loadSpec(path string) (spec, error) {
	var sp spec
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	if err == nil && (len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0) {
		err = errors.New("no end_to_end or no per_layer metrics")
	}
	if err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: bulk-1k, video-16k, relay-fanout or churn")
	seed := flag.Uint64("seed", 1, "seed for payload contents and emulated link randomness")
	seconds := flag.Int("seconds", 10, "how long one run loads the system")
	trace := flag.Int("trace", 0, "1 makes a traced run that reports per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	// Every wait in a run is bounded, so this only fires on a bug: leave
	// the goroutine dump behind as the diagnosis.
	time.AfterFunc(hardLimit, func() {
		dumpGoroutines(fmt.Sprintf("run exceeded %v", hardLimit))
		os.Exit(3)
	})
	window := time.Duration(*seconds) * time.Second
	substrate := "udpnet"
	if d, ok := w.(dataWorkload); ok && d.netem {
		substrate = "netem"
	}
	fmt.Printf("workload %s  seed %d  seconds %d  trace %d  substrate %s  nproc %d  GOMAXPROCS %d\n",
		*name, *seed, *seconds, *trace, substrate, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	var out output
	var res *runResult
	defs := sp.EndToEnd
	if *trace == 0 {
		if res, err = w.run(*seed, window, nil); err != nil {
			fail(err)
		}
		if out, err = report(res, res.e2e, defs, true); err != nil {
			fail(err)
		}
		fmt.Printf("not gated (they do not repeat within the bounds): latency p90 %.4f ms, p99 %.4f ms, CPU %.2f µs per op\n",
			res.e2e["latency_p90_ms"], res.e2e["latency_p99_ms"], res.e2e["cpu_us_per_op"])
		if d, ok := w.(dataWorkload); ok && d.offered > 0 {
			fmt.Printf("not gated (the generator's wake-up sets them): latency from the due time p50 %.4f ms, p99 %.4f ms; generator late p50 %.4f ms\n",
				res.layer["bench.latency_due_p50_ms"], res.layer["bench.latency_due_p99_ms"], res.layer["bench.generator_late_ms_p50"])
		}
	} else {
		defs = sp.PerLayer
		base, err := w.run(*seed, max(window/3, time.Second), nil)
		if err != nil {
			fail(err)
		}
		tr := newTracer(substrate)
		if res, err = w.run(*seed, window, tr); err != nil {
			fail(err)
		}
		res.layer["trace.overhead_cpu_us_per_op"] = res.e2e["cpu_us_per_op"] - base.e2e["cpu_us_per_op"]
		res.layer["trace.overhead_latency_p50_ms"] = res.e2e["latency_p50_ms"] - base.e2e["latency_p50_ms"]
		// The reference run comes first in the process, so no earlier
		// stack's release blurs its memory reading.
		res.layer["runtime.heap_kb_per_cycle"] = base.layer["runtime.heap_kb_per_cycle"]
		res.layer["runtime.cpu_us_per_op"] = base.e2e["cpu_us_per_op"]
		res.layer["bench.latency_p90_ms"] = base.e2e["latency_p90_ms"]
		res.layer["bench.latency_p99_ms"] = base.e2e["latency_p99_ms"]
		res.layer["bench.latency_due_p50_ms"] = base.layer["bench.latency_due_p50_ms"]
		res.layer["bench.latency_due_p99_ms"] = base.layer["bench.latency_due_p99_ms"]
		res.layer["udpnet.close_hangs"] = float64(closeHangs.Load())
		if out, err = report(res, res.layer, defs, false); err != nil {
			fail(err)
		}
		if len(base.mismatches) > 0 || base.stalls > 0 {
			out.Correct = false
			for _, m := range base.mismatches {
				fmt.Printf("MISMATCH (untraced reference run): %s\n", m)
			}
			if base.stalls > 0 {
				fmt.Printf("STALLED (untraced reference run): %d set-ups\n", base.stalls)
			}
		}
		top := printSelfTimes(os.Stdout, selfTimes(res.spans))
		fmt.Printf("largest self time: %s; tracing cost %+.2f µs CPU and %+.3f ms p50 latency per op\n",
			top, res.layer["trace.overhead_cpu_us_per_op"], res.layer["trace.overhead_latency_p50_ms"])
		path, err := writeSpans(*traceDir, *name+".jsonl", res.spans)
		if err != nil {
			fail(fmt.Errorf("writing spans: %w", err))
		}
		fmt.Printf("%d spans written to %s\n", len(res.spans), path)
	}
	for _, d := range defs {
		fmt.Printf("  %-36s %16.6f %s\n", d.Name, out.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// report builds the result object from one run: every metric of defs
// from vals, which must hold each one if required. The run is correct
// only if every output checked out and no set-up stalled.
func report(res *runResult, vals map[string]float64, defs []metricDef, required bool) (output, error) {
	out := output{Correct: len(res.mismatches) == 0 && res.stalls == 0,
		Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	for _, m := range res.mismatches {
		fmt.Printf("MISMATCH: %s\n", m)
	}
	fmt.Printf("attempted %d ops, failed %d\n", res.attempted, res.failed)
	if res.stalls > 0 {
		fmt.Printf("STALLED: %d set-ups stopped delivering and were closed to end the run\n", res.stalls)
	}
	if n := closeHangs.Load(); n > 0 {
		fmt.Printf("CLOSE HUNG: udpnet.Close of %d substrates did not return within %v; they were left behind\n", n, closeLimit)
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && required {
			return out, fmt.Errorf("the workload does not measure %s", d.Name)
		}
		out.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// diag receives the goroutine dump a stalled run leaves behind.
var diag io.Writer = os.Stderr

// dumpGoroutines writes every goroutine's stack to diag. A stall calls it
// before the stack is closed, so the dump shows where the program hangs.
func dumpGoroutines(why string) {
	buf := make([]byte, 4<<20)
	fmt.Fprintf(diag, "perfbench: STALLED: %s; goroutines:\n%s\n", why, buf[:runtime.Stack(buf, true)])
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
