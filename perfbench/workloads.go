package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cmtos/internal/core"
	"cmtos/internal/netem"
	"cmtos/internal/qos"
	"cmtos/internal/relay"
	"cmtos/internal/transport"
)

// dataWorkload is a streaming workload: writers push self-describing
// OSDUs through VCs and readers verify them at the sinks.
type dataWorkload struct {
	netem    bool      // in-process emulated network instead of loopback UDP
	vcs      int       // source VCs, one writer goroutine each
	class    qos.Class // class of service
	size     int       // OSDU bytes
	contract float64   // requested OSDU/s per VC
	offered  float64   // open-loop OSDU/s per VC; 0 runs a closed loop
	fanout   int       // relay leaves per source VC; 0 is point to point
	gapFree  bool      // any missing seq before the last delivered one is a mismatch
	damage   float64   // probability udpnet corrupts a sent packet; the harness self-tests set it
	// stallAfter, if set, corrupts every packet from this far into each
	// segment's load on, so the segment stalls; a self-test sets it.
	stallAfter time.Duration
}

const (
	// A set-up's time is spread widely (1.5 to 15 ms on video-16k on a
	// 2-vCPU VM), so setup_s is the median of many: at least minSetups,
	// and more until setupBudget has passed.
	minSetups   = 61
	setupBudget = 4 * time.Second

	drainLimit   = 3 * time.Second // bounded drain after the load stops
	sinkTSAP     = core.TSAP(20)
	ingestTSAP   = core.TSAP(0x300)
	egressTSAP   = core.TSAP(0x301)
	readyTimeout = 5 * time.Second

	maxSetupFailures = 3
)

var relayLink = netem.LinkConfig{Bandwidth: 12.5e6, Delay: time.Millisecond}

// dataEnv is one set-up data workload: its stack, the writers' VCs and,
// per writer, the sink VCs that carry its stream.
type dataEnv struct {
	st       *stack
	writers  []*transport.SendVC
	readers  [][]*transport.RecvVC
	contract float64 // sum of negotiated throughputs, OSDU/s
	links    [][2]core.HostID
	addSink  []float64 // ms per relay AddSink
}

func (w dataWorkload) setup(seed uint64, tr *tracer) (*dataEnv, error) {
	if w.fanout > 0 {
		return w.setupRelay(seed, tr)
	}
	st, err := newUDPStack(2, tr)
	if err != nil {
		return nil, err
	}
	env := &dataEnv{st: st}
	ready := make(chan *transport.RecvVC, w.vcs)
	if err := st.ents[2].Attach(sinkTSAP, transport.UserCallbacks{
		OnRecvReady: func(rv *transport.RecvVC) { ready <- rv },
	}); err != nil {
		st.close()
		return nil, err
	}
	for i := 0; i < w.vcs; i++ {
		vc, err := st.connect(1, transport.ConnectRequest{
			SrcTSAP: core.TSAP(10 + i), Dest: core.Addr{Host: 2, TSAP: sinkTSAP},
			Class: w.class, Spec: cmSpec(w.contract, w.size),
		})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("connect VC %d: %w", i, err)
		}
		env.writers = append(env.writers, vc)
		env.contract += vc.Contract().Throughput
	}
	env.readers = make([][]*transport.RecvVC, w.vcs)
	for range env.writers {
		select {
		case rv := <-ready:
			for i, vc := range env.writers {
				if vc.ID() == rv.ID() {
					env.readers[i] = []*transport.RecvVC{rv}
				}
			}
		case <-time.After(readyTimeout):
			st.close()
			return nil, errors.New("sink VC never became ready")
		}
	}
	return env, nil
}

// setupRelay builds source (1) → relay (2) → leaves (3..) over netem and
// splices the source VC onto one egress VC per leaf.
func (w dataWorkload) setupRelay(seed uint64, tr *tracer) (*dataEnv, error) {
	links := [][2]core.HostID{{1, 2}}
	for i := 0; i < w.fanout; i++ {
		links = append(links, [2]core.HostID{2, core.HostID(3 + i)})
	}
	st, err := newNetemStack(2+w.fanout, links, relayLink, seed, tr)
	if err != nil {
		return nil, err
	}
	env := &dataEnv{st: st, links: links}
	node := relay.NewNode(st.ents[2], relay.Config{Stats: st.reg})
	if err := node.Listen(ingestTSAP); err != nil {
		st.close()
		return nil, err
	}
	leafReady := make([]chan *transport.RecvVC, w.fanout)
	for i := range leafReady {
		ch := make(chan *transport.RecvVC, 1)
		leafReady[i] = ch
		if err := st.ents[core.HostID(3+i)].Attach(sinkTSAP, transport.UserCallbacks{
			OnRecvReady: func(rv *transport.RecvVC) { ch <- rv },
		}); err != nil {
			st.close()
			return nil, err
		}
	}
	vc, err := st.connect(1, transport.ConnectRequest{
		SrcTSAP: 10, Dest: core.Addr{Host: 2, TSAP: ingestTSAP},
		Class: w.class, Spec: cmSpec(w.contract, w.size),
	})
	if err != nil {
		st.close()
		return nil, fmt.Errorf("connect source: %w", err)
	}
	env.writers = []*transport.SendVC{vc}
	env.contract = vc.Contract().Throughput
	if tr != nil {
		tr.markIngest(vc.ID())
	}
	var sp *relay.Splice
	for until := time.Now().Add(readyTimeout); ; time.Sleep(100 * time.Microsecond) {
		var ok bool
		if sp, ok = node.Splice(vc.ID()); ok {
			break
		}
		if time.Now().After(until) {
			st.close()
			return nil, errors.New("relay splice never formed")
		}
	}
	env.readers = [][]*transport.RecvVC{nil}
	for i := 0; i < w.fanout; i++ {
		t0 := time.Now()
		if _, err := sp.AddSink(egressTSAP, core.Addr{Host: core.HostID(3 + i), TSAP: sinkTSAP}); err != nil {
			st.close()
			return nil, fmt.Errorf("AddSink leaf %d: %w", 3+i, err)
		}
		env.addSink = append(env.addSink, float64(time.Since(t0))/1e6)
		select {
		case rv := <-leafReady[i]:
			env.readers[0] = append(env.readers[0], rv)
		case <-time.After(readyTimeout):
			st.close()
			return nil, fmt.Errorf("leaf %d never became ready", 3+i)
		}
	}
	return env, nil
}

// teardown disconnects every writer VC (timed for the trace) and closes
// the stack.
func (env *dataEnv) teardown() {
	for _, vc := range env.writers {
		_ = env.st.disconnect(1, vc.ID()) // the stack closes next either way
	}
	env.st.close()
}

// readLog is what one reader saw, kept per reader so readers share nothing.
type readLog struct {
	seqs []core.OSDUSeq
	at   []int64 // Read return, ns since epoch
	lat  []int64 // ns from the Write call to Read return
	due  []int64 // ns from the OSDU's due time to Read return
	next atomic.Uint64
}

// writeLog is what one writer did.
type writeLog struct {
	accepted atomic.Uint64
	late     []int64 // open loop: ns the generator woke after each due time
	err      error
}

// logCap is how many OSDUs a segment's logs hold before they grow: the
// open-loop schedule exactly, or twice the contract on a closed loop,
// which is more than the contract lets a VC deliver. Logs of a fixed size
// keep the harness's share of the live heap the same whatever the
// program's throughput.
func (w dataWorkload) logCap(load time.Duration) int {
	rate := w.offered
	if rate == 0 {
		rate = 2 * w.contract
	}
	return int(rate*load.Seconds()) + 1024
}

// runResult is one measured run of a workload.
type runResult struct {
	attempted, failed int
	stalls            int // set-ups (churn: batches) the harness had to close to end the run
	setupFailures     int
	tail              int // accepted OSDUs after a reader's last delivered one
	mismatches        []string
	delivered         []uint64 // per segment and reader, a digest of the seqs it delivered
	e2e               map[string]float64
	layer             map[string]float64
	spans             []span
}

type checker struct {
	mu   sync.Mutex
	msgs []string
	n    int
}

func (c *checker) fail(format string, a ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, a...))
	}
}

// run sets the workload up again and again, tearing each set-up down at
// once, until it has enough set-up times; the next `segments` set-ups each
// carry the load for an equal share of window, one after another, and are
// drained.
func (w dataWorkload) run(seed uint64, window time.Duration, tr *tracer) (*runResult, error) {
	res := &runResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	acc := &dataAcc{ck: &checker{}}
	var setups, addSinks, heaps []float64
	for start := time.Now(); len(heaps) < segments; {
		runtime.GC() // each set-up pays for its own garbage, not its predecessors'
		t0 := time.Now()
		env, err := w.setup(seed, tr)
		if err != nil {
			// A failed set-up is reported and, within a limit, tried again,
			// so one lost handshake does not void the whole run.
			res.setupFailures++
			fmt.Printf("SETUP FAILED: %v\n", err)
			if res.setupFailures > maxSetupFailures {
				return nil, err
			}
			continue
		}
		setups = append(setups, time.Since(t0).Seconds())
		addSinks = append(addSinks, env.addSink...)
		if len(setups) > minSetups-segments && time.Since(start) >= setupBudget {
			heaps = append(heaps, w.segment(env, seed, window/segments, acc, res))
		}
		env.teardown()
	}
	if res.attempted == 0 {
		return nil, errors.New("no OSDU was accepted")
	}
	res.failed = res.attempted - acc.ops + acc.ck.n
	res.mismatches = acc.ck.msgs

	for _, xs := range [][]float64{setups, addSinks, heaps, acc.sliceOps, acc.sliceCPU, acc.sliceAllocs} {
		sort.Float64s(xs)
	}
	e := res.e2e
	e["setup_s"] = quantile(setups, 0.5)
	e["ops_s"] = quantile(acc.sliceOps, 0.5)
	e["latency_p50_ms"] = acc.lat.quantile(0.5) / 1e6
	e["latency_p90_ms"] = acc.lat.quantile(0.90) / 1e6
	e["latency_p99_ms"] = acc.lat.quantile(0.99) / 1e6
	e["cpu_us_per_op"] = quantile(acc.sliceCPU, 0.5)
	e["allocs_per_op"] = quantile(acc.sliceAllocs, 0.5)
	e["delivered_ratio"] = 1 - float64(res.failed)/float64(res.attempted)
	e["heap_live_mb"] = quantile(heaps, 0.5)

	layer := res.layer
	layer["cbuf.src_app_blocked_share"] = acc.srcApp.Seconds() / acc.srcVCs
	layer["cbuf.src_proto_starved_share"] = acc.srcProto.Seconds() / acc.srcVCs
	layer["cbuf.sink_app_wait_share"] = acc.sinkApp.Seconds() / acc.sinkVCs
	layer["cbuf.sink_proto_blocked_share"] = acc.sinkProto.Seconds() / acc.sinkVCs
	layer["transport.contract_ratio"] = e["ops_s"] / acc.contract
	layer["stats.instruments_per_cycle"] = float64(acc.instrGrowth) / float64(max(acc.ops, 1))
	layer["bench.failed_ratio"] = float64(res.failed) / float64(res.attempted)
	layer["bench.latency_due_p50_ms"] = acc.due.quantile(0.5) / 1e6
	layer["bench.latency_due_p99_ms"] = acc.due.quantile(0.99) / 1e6
	layer["bench.generator_late_ms_p50"] = acc.late.quantile(0.5) / 1e6
	layer["bench.generator_late_ms_max"] = float64(acc.lateMax) / 1e6
	layer["relay.leaf_skew_us_p50"] = acc.skews.quantile(0.5) / 1e3
	layer["relay.leaf_skew_us_p99"] = acc.skews.quantile(0.99) / 1e3
	layer["relay.addsink_ms"] = quantile(addSinks, 0.5)
	layer["runtime.heap_live_mb"] = e["heap_live_mb"]
	acc.use.fill(layer)
	if tr != nil {
		res.spans = tr.spans()
		tr.fill(layer, res.spans, float64(acc.ops), acc.use.wall.Seconds())
	}
	return res, nil
}

// segments is how many set-ups carry a run's load in turn. Throughput
// differs by about ±5% between set-ups of one run (each binds fresh
// sockets, whose flows the kernel places on the receive shards anew), so
// a run averages over several.
const segments = 4

// slicesPerSegment is how many slices a segment's load is cut into.
const slicesPerSegment = 5

// mark is one slice boundary: when it was taken, in ns since the
// segment's epoch, and the process CPU time and allocation count then.
type mark struct {
	at      int64
	cpu     time.Duration
	mallocs uint64
}

// slicer takes a mark at every slice boundary of a segment's load.
type slicer struct {
	marks []mark
	done  chan struct{}
}

func startSlicer(epoch time.Time, slice time.Duration, n int) *slicer {
	sl := &slicer{done: make(chan struct{})}
	take := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		sl.marks = append(sl.marks, mark{int64(time.Since(epoch)), cpuTime(), ms.Mallocs})
	}
	take()
	go func() {
		defer close(sl.done)
		for k := 1; k <= n; k++ {
			time.Sleep(time.Until(epoch.Add(time.Duration(k) * slice)))
			take()
		}
	}()
	return sl
}

// wait returns the marks once the last slice has ended.
func (sl *slicer) wait() []mark {
	<-sl.done
	return sl.marks
}

// dataAcc sums a run's segments.
type dataAcc struct {
	ck  *checker
	ops int
	// Per slice of the load: ops completed per second, and CPU µs and
	// allocations per op completed. Reporting their medians keeps a
	// short pause (a collection, a descheduled vCPU) from moving a run;
	// a slice in which nothing completed counts as 0 ops/s.
	sliceOps, sliceCPU, sliceAllocs []float64
	use                             usage
	contract                        float64 // negotiated OSDU/s, averaged over segments
	instrGrowth                     int

	// Latencies in ns: Write call → Read return, due time → Read return,
	// last − first leaf Read of one OSDU, and generator lateness.
	lat, due, skews, late hist
	lateMax               int64

	// cbuf blocking (§6.3.1.2) and the VC-seconds of load it is a share of.
	srcApp, srcProto, sinkApp, sinkProto time.Duration
	srcVCs, sinkVCs                      float64
}

// segment loads one set-up for window, drains it, adds what it saw to acc
// and res, and returns the live heap in MB before teardown.
func (w dataWorkload) segment(env *dataEnv, seed uint64, window time.Duration, acc *dataAcc, res *runResult) float64 {
	ck := acc.ck
	wl := make([]*writeLog, len(env.writers))
	var rl [][]*readLog
	n := w.logCap(window)
	for i := range env.writers {
		wl[i] = &writeLog{}
		if w.offered > 0 {
			wl[i].late = make([]int64, 0, n)
		}
		var logs []*readLog
		for range env.readers[i] {
			logs = append(logs, &readLog{seqs: make([]core.OSDUSeq, 0, n),
				at: make([]int64, 0, n), lat: make([]int64, 0, n), due: make([]int64, 0, n)})
		}
		rl = append(rl, logs)
	}
	for _, vc := range env.writers {
		vc.TakeBlockStats()
	}
	for _, rs := range env.readers {
		for _, rv := range rs {
			rv.TakeBlockStats()
		}
	}
	for _, nw := range env.st.udp {
		nw.SetDamage(w.damage)
	}
	instr0 := env.st.tally().instruments
	prof := startProfile()
	epoch := time.Now()
	now := func() int64 { return int64(time.Since(epoch)) }
	slicer := startSlicer(epoch, window/slicesPerSegment, slicesPerSegment)
	if tr := env.st.tr; tr != nil {
		tr.runOff = int64(epoch.Sub(tr.epoch))
	}
	var stall *time.Timer
	if w.stallAfter > 0 {
		stall = time.AfterFunc(w.stallAfter, func() {
			for _, nw := range env.st.udp {
				nw.SetDamage(1)
			}
		})
	}

	var readers sync.WaitGroup
	for i, rs := range env.readers {
		for j, rv := range rs {
			readers.Add(1)
			go func(writer uint32, rv *transport.RecvVC, log *readLog) {
				defer readers.Done()
				w.read(seed, writer, rv, log, now, env.st, ck)
			}(uint32(i), rv, rl[i][j])
		}
	}
	end := int64(window)
	var writers sync.WaitGroup
	var stalled atomic.Bool
	for i, vc := range env.writers {
		writers.Add(1)
		go func(writer uint32, vc *transport.SendVC, log *writeLog) {
			defer writers.Done()
			w.write(seed, writer, vc, log, now, end, env.st, ck, &stalled)
		}(uint32(i), vc, wl[i])
	}
	written := make(chan struct{})
	go func() {
		writers.Wait()
		close(written)
	}()
	marks := slicer.wait()
	select {
	case <-written:
	case <-time.After(drainLimit):
		// A writer still blocked on a full buffer has seen its VC stall,
		// which makes the run incorrect. It still ends on its deadline:
		// the goroutine dump is the diagnosis, closing the stack unblocks
		// the writer, and what was accepted but never delivered counts as
		// failed.
		stalled.Store(true)
		res.stalls++
		dumpGoroutines(fmt.Sprintf("a writer is still blocked %v after the deadline", drainLimit))
		env.st.close()
		<-written
	}
	loaded := time.Duration(now()).Seconds()
	for _, vc := range env.writers {
		a, p := vc.TakeBlockStats()
		acc.srcApp, acc.srcProto = acc.srcApp+a, acc.srcProto+p
		acc.srcVCs += loaded
	}
	for _, rs := range env.readers {
		for _, rv := range rs {
			a, p := rv.TakeBlockStats()
			acc.sinkApp, acc.sinkProto = acc.sinkApp+a, acc.sinkProto+p
			acc.sinkVCs += loaded
		}
	}

	// Drain: in-order delivery means a reader that has returned a writer's
	// last accepted seq will deliver nothing more of that stream.
	for deadline := time.Now().Add(drainLimit); !stalled.Load() && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		done := true
		for i := range wl {
			for _, r := range rl[i] {
				if r.next.Load() < wl[i].accepted.Load() {
					done = false
				}
			}
		}
		if done {
			break
		}
	}
	drainEnd := now()
	use := prof.stop()
	acc.use.add(use)
	if stall != nil {
		stall.Stop()
	}
	for _, nw := range env.st.udp {
		nw.SetDamage(0) // let the teardown handshakes through
	}

	layer := res.layer
	t := env.st.tally()
	t.addTo(layer)
	if w.netem {
		layer["netem.queue_drops"] += float64(env.st.queueDrops(env.links))
	} else {
		sent := t.sum("net/sent_packets")
		layer["udpnet.pkts_per_batch"] = ratio(sent, t.sum("net/sent_batches"))
		layer["udpnet.gso_supers_per_kpkt"] = 1000 * ratio(t.sum("net/gso_supers"), sent)
		layer["udpnet.gro_supers_per_kpkt"] = 1000 * ratio(t.sum("net/gro_supers"), t.sum("net/recv_packets"))
	}
	acc.instrGrowth += t.instruments - instr0
	acc.contract += env.contract / segments
	heap := liveHeap()
	env.teardown()
	readers.Wait()

	// An op is one writer OSDU delivered at every one of its readers.
	var done []int64 // completion times
	for i := range wl {
		if wl[i].err != nil {
			// What it had written still counts; it just wrote no more.
			fmt.Fprintf(os.Stderr, "perfbench: writer %d stopped early: %v\n", i, wl[i].err)
		}
		for _, l := range wl[i].late {
			acc.late.add(l)
			acc.lateMax = max(acc.lateMax, l)
		}
		n := int(wl[i].accepted.Load())
		res.attempted += n
		doneAt := make([]int64, n)
		firstAt := make([]int64, n)
		count := make([]int, n)
		for _, r := range rl[i] {
			res.delivered = append(res.delivered, digest(r.seqs))
			res.tail += n - int(r.next.Load())
			for k, s := range r.seqs {
				if r.at[k] > drainEnd || int(s) >= n {
					continue
				}
				count[s]++
				doneAt[s] = max(doneAt[s], r.at[k])
				if firstAt[s] == 0 || r.at[k] < firstAt[s] {
					firstAt[s] = r.at[k]
				}
				acc.lat.add(r.lat[k])
				acc.due.add(r.due[k])
			}
		}
		for s := 0; s < n; s++ {
			if count[s] < len(rl[i]) {
				continue
			}
			acc.ops++
			done = append(done, doneAt[s])
			if len(rl[i]) > 1 {
				acc.skews.add(doneAt[s] - firstAt[s])
			}
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	for k := 1; k < len(marks); k++ {
		a, b := marks[k-1], marks[k]
		n := sort.Search(len(done), func(i int) bool { return done[i] >= b.at }) -
			sort.Search(len(done), func(i int) bool { return done[i] >= a.at })
		acc.sliceOps = append(acc.sliceOps, float64(n)/time.Duration(b.at-a.at).Seconds())
		if n == 0 {
			continue // no per-op cost without ops
		}
		acc.sliceCPU = append(acc.sliceCPU, (b.cpu-a.cpu).Seconds()*1e6/float64(n))
		acc.sliceAllocs = append(acc.sliceAllocs, float64(b.mallocs-a.mallocs)/float64(n))
	}
	return heap
}

// write is one writer goroutine: back to back in a closed loop, on a
// fixed schedule in an open loop, until the window ends.
func (w dataWorkload) write(seed uint64, writer uint32, vc *transport.SendVC, log *writeLog, now func() int64, end int64, st *stack, ck *checker, stalled *atomic.Bool) {
	buf := make([]byte, w.size)
	var period int64
	if w.offered > 0 {
		period = int64(float64(time.Second) / w.offered)
	}
	for seq := uint64(0); ; seq++ {
		fill(buf, seed, writer, seq)
		var due int64
		if period > 0 {
			due = int64(seq) * period
			if due >= end {
				return
			}
			if d := due - now(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			log.late = append(log.late, max(now()-due, 0))
		} else if due = now(); due >= end {
			return
		}
		w0 := now()
		stamp(buf, due, w0)
		got, err := vc.Write(buf, 0)
		w1 := now()
		if err != nil {
			if !stalled.Load() {
				log.err = err
			}
			return
		}
		if uint64(got) != seq {
			ck.fail("writer %d: Write assigned seq %d, want %d", writer, got, seq)
			return
		}
		if st.tr != nil {
			st.tr.wrote(st.gen, vc.ID(), got, w0, w1)
		}
		log.accepted.Store(seq + 1)
	}
}

// read is one reader goroutine: it verifies every OSDU and its order
// until the VC closes.
func (w dataWorkload) read(seed uint64, writer uint32, rv *transport.RecvVC, log *readLog, now func() int64, st *stack, ck *checker) {
	for {
		u, err := rv.Read()
		at := now()
		if err != nil {
			return
		}
		if st.tr != nil {
			st.tr.read(st.gen, rv.ID(), u.Seq, at)
		}
		next := core.OSDUSeq(log.next.Load())
		switch {
		case len(log.seqs) > 0 && u.Seq < next:
			ck.fail("VC %d: seq %d delivered after seq %d", rv.ID(), u.Seq, next-1)
			continue
		case w.gapFree && u.Seq != next:
			ck.fail("VC %d: seq %d delivered where %d was due", rv.ID(), u.Seq, next)
		}
		due, wrote, err := verify(u.Payload, seed, writer, uint64(u.Seq))
		if err != nil {
			ck.fail("VC %d: %v", rv.ID(), err)
			continue
		}
		log.seqs = append(log.seqs, u.Seq)
		log.at = append(log.at, at)
		log.lat = append(log.lat, at-wrote)
		log.due = append(log.due, at-due)
		log.next.Store(uint64(u.Seq) + 1)
	}
}

// churnWorkload cycles VCs through their whole life on one client.
type churnWorkload struct {
	batch int // cycles per fresh stack
}

// run repeats batches of a fixed cycle count, each on a fresh stack, until
// window of cycling has passed. A fixed count per stack keeps the cycle
// rate independent of how long the run is, since every cycle leaves
// registry instruments behind. Memory is measured on the first stack
// only: a closed stack is released some time into the next batch, which
// would blur any later reading.
func (c churnWorkload) run(seed uint64, window time.Duration, tr *tracer) (*runResult, error) {
	res := &runResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	l := res.layer
	ck := &checker{}
	var setups, rates, cpus, allocs []float64
	var cycles hist // ns per completed cycle
	var cycled time.Duration
	prof := startProfile()
	for batch := uint32(0); cycled < window; {
		runtime.GC() // the set-up pays for its own garbage, not the last batch's
		t0 := time.Now()
		st, ready, err := c.setup(tr)
		if err != nil {
			if res.setupFailures++; res.setupFailures > maxSetupFailures {
				return nil, err
			}
			fmt.Printf("SETUP FAILED: %v\n", err)
			continue
		}
		setups = append(setups, time.Since(t0).Seconds())
		var heap0 float64
		if batch == 0 {
			heap0 = liveHeap()
		}
		instr0 := st.tally().instruments
		bp := startProfile()
		b0 := time.Now()
		n, ok := 0, 0
		buf := make([]byte, 1024)
		for ; n < c.batch && cycled+time.Since(b0) < window; n++ {
			res.attempted++
			seq := uint64(n)
			fill(buf, seed, batch, seq)
			c0 := time.Now()
			if err := c.cycle(st, ready, buf, seed, batch, seq); err != nil {
				if st.down.Load() {
					// The cycle's watchdog closed the stack: this batch is over.
					res.stalls++
					res.failed++
					n++
					break
				}
				var mm mismatch
				if errors.As(err, &mm) {
					ck.fail("batch %d cycle %d: %v", batch, n, err)
				} else {
					res.failed++
					fmt.Fprintf(os.Stderr, "perfbench: batch %d cycle %d failed: %v\n", batch, n, err)
				}
				continue
			}
			cycles.add(int64(time.Since(c0)))
			ok++
		}
		took := time.Since(b0)
		cycled += took
		u := bp.stop()
		if ok >= c.batch/2 {
			// Per-batch figures, whose medians a short stall cannot move;
			// a batch cut short by the deadline is too small to count.
			rates = append(rates, float64(ok)/took.Seconds())
			cpus = append(cpus, u.cpu.Seconds()*1e6/float64(ok))
			allocs = append(allocs, float64(u.mallocs)/float64(ok))
		}
		if batch == 0 {
			heap := liveHeap()
			res.e2e["heap_live_mb"] = heap
			l["runtime.heap_kb_per_cycle"] = (heap - heap0) * 1024 / float64(n)
		}
		t := st.tally()
		t.addTo(l)
		if batch == 0 {
			l["stats.instruments_per_cycle"] = float64(t.instruments-instr0) / float64(n)
		}
		st.close()
		batch++
	}
	all := prof.stop()
	// More set-ups alone, after the batches so that their release does not
	// blur the first batch's memory reading.
	for start := time.Now(); len(setups) < minSetups || time.Since(start) < setupBudget; {
		runtime.GC()
		t0 := time.Now()
		st, _, err := c.setup(tr)
		if err != nil {
			if res.setupFailures++; res.setupFailures > maxSetupFailures {
				return nil, err
			}
			fmt.Printf("SETUP FAILED: %v\n", err)
			continue
		}
		setups = append(setups, time.Since(t0).Seconds())
		st.close()
	}
	res.failed += ck.n
	res.mismatches = ck.msgs
	ops := int(cycles.n)
	if ops == 0 {
		return nil, fmt.Errorf("no churn cycle completed: %v", ck.msgs)
	}
	for _, xs := range [][]float64{setups, rates, cpus, allocs} {
		sort.Float64s(xs)
	}
	e := res.e2e
	e["setup_s"] = quantile(setups, 0.5)
	e["ops_s"] = quantile(rates, 0.5)
	e["latency_p50_ms"] = cycles.quantile(0.5) / 1e6
	e["latency_p90_ms"] = cycles.quantile(0.90) / 1e6
	e["latency_p99_ms"] = cycles.quantile(0.99) / 1e6
	e["cpu_us_per_op"] = quantile(cpus, 0.5)
	e["allocs_per_op"] = quantile(allocs, 0.5)
	e["delivered_ratio"] = 1 - float64(res.failed)/float64(res.attempted)
	l["bench.failed_ratio"] = float64(res.failed) / float64(res.attempted)
	l["runtime.heap_live_mb"] = e["heap_live_mb"]
	all.fill(l)
	if tr != nil {
		res.spans = tr.spans()
		tr.fill(l, res.spans, float64(ops), all.wall.Seconds())
	}
	return res, nil
}

// setup builds a churn stack: two hosts, the sink attached.
func (c churnWorkload) setup(tr *tracer) (*stack, chan *transport.RecvVC, error) {
	st, err := newUDPStack(2, tr)
	if err != nil {
		return nil, nil, err
	}
	// A sink VC whose Connect failed at the source can still become ready
	// at the sink; the room keeps such a VC from blocking the callback.
	ready := make(chan *transport.RecvVC, 64)
	if err := st.ents[2].Attach(sinkTSAP, transport.UserCallbacks{
		OnRecvReady: func(rv *transport.RecvVC) { ready <- rv },
	}); err != nil {
		st.close()
		return nil, nil, err
	}
	return st, ready, nil
}

// mismatch marks a cycle error that is wrong output rather than a failed
// operation.
type mismatch struct{ error }

// cycle is one churn op: Connect, write one OSDU, read and verify it at
// the sink, Disconnect.
func (c churnWorkload) cycle(st *stack, ready chan *transport.RecvVC, buf []byte, seed uint64, batch uint32, seq uint64) error {
	// An OSDU lost on the wire would block Read for good: past the limit
	// the watchdog closes the stack, which fails the cycle and ends the
	// batch.
	wd := time.AfterFunc(readyTimeout, func() {
		dumpGoroutines(fmt.Sprintf("a churn cycle is still going after %v", readyTimeout))
		st.close()
	})
	defer wd.Stop()
	vc, err := st.connect(1, transport.ConnectRequest{
		SrcTSAP: 10, Dest: core.Addr{Host: 2, TSAP: sinkTSAP},
		Class: qos.ClassDetectIndicate, Spec: cmSpec(100, len(buf)),
	})
	if err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	defer func() { _ = st.disconnect(1, vc.ID()) }() // errors surface as the next cycle's
	var rv *transport.RecvVC
	for timeout := time.After(readyTimeout); rv == nil; {
		select {
		case r := <-ready:
			if r.ID() == vc.ID() { // skip a sink VC left by an earlier failed cycle
				rv = r
			}
		case <-timeout:
			return errors.New("sink VC never became ready")
		}
	}
	if _, err := vc.Write(buf, 0); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	u, err := rv.Read()
	if err != nil {
		return fmt.Errorf("read: %w", err)
	}
	if u.Seq != 0 {
		return mismatch{fmt.Errorf("first OSDU of a fresh VC has seq %d", u.Seq)}
	}
	if _, _, err := verify(u.Payload, seed, batch, seq); err != nil {
		return mismatch{err}
	}
	return nil
}

// profile brackets a measured interval with process CPU, allocation, GC
// and goroutine readings.
type profile struct {
	t0      time.Time
	cpu0    time.Duration
	ms0     runtime.MemStats
	gc0     [2]float64
	peak    atomic.Int64
	stopped chan struct{}
	sampled sync.WaitGroup
}

// usage is what a profile measured.
type usage struct {
	wall, cpu, gcCPU, allCPU time.Duration
	mallocs                  uint64
	goroutinesPeak           int64
}

func startProfile() *profile {
	p := &profile{stopped: make(chan struct{})}
	runtime.GC() // start from a collected heap, so earlier garbage is not charged here
	runtime.ReadMemStats(&p.ms0)
	p.gc0 = gcCPU()
	p.cpu0 = cpuTime()
	p.t0 = time.Now()
	p.peak.Store(int64(runtime.NumGoroutine()))
	p.sampled.Add(1)
	go func() {
		defer p.sampled.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stopped:
				return
			case <-t.C:
				if g := int64(runtime.NumGoroutine()); g > p.peak.Load() {
					p.peak.Store(g)
				}
			}
		}
	}()
	return p
}

// add sums another interval into u.
func (u *usage) add(v usage) {
	u.wall += v.wall
	u.cpu += v.cpu
	u.gcCPU += v.gcCPU
	u.allCPU += v.allCPU
	u.mallocs += v.mallocs
	u.goroutinesPeak = max(u.goroutinesPeak, v.goroutinesPeak)
}

func (p *profile) stop() usage {
	close(p.stopped)
	p.sampled.Wait()
	u := usage{wall: time.Since(p.t0), cpu: cpuTime() - p.cpu0}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs = ms.Mallocs - p.ms0.Mallocs
	gc := gcCPU()
	u.gcCPU = time.Duration((gc[0] - p.gc0[0]) * 1e9)
	u.allCPU = time.Duration((gc[1] - p.gc0[1]) * 1e9)
	u.goroutinesPeak = p.peak.Load()
	return u
}

// fill reports the runtime layer's metrics.
func (u usage) fill(layer map[string]float64) {
	layer["runtime.cpu_util"] = u.cpu.Seconds() / u.wall.Seconds()
	layer["runtime.gc_cpu_share"] = ratio(u.gcCPU.Seconds(), u.allCPU.Seconds())
	layer["runtime.goroutines_peak"] = float64(u.goroutinesPeak)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPU returns the runtime's estimate of GC and total CPU seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// liveHeap collects garbage and returns the live heap in MB. The second
// collection empties the sync.Pool victim caches the first one filled,
// which would otherwise count the substrate's idle packet buffers.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// quantile returns the q-quantile of sorted xs by linear interpolation,
// or 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest hashes a sequence of seqs (FNV-1a over their bytes), so two runs
// can be compared without keeping every seq.
func digest(seqs []core.OSDUSeq) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range seqs {
		for v, i := uint64(s), 0; i < 8; v, i = v>>8, i+1 {
			h = (h ^ v&0xff) * 1099511628211
		}
	}
	return h
}
