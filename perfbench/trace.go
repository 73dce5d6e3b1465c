package main

// Outside-in tracing. The traced run wraps the substrate and the
// reservation manager in pass-through shims and times the benchmark's own
// calls into the transport; nothing inside the program is instrumented.
// Every data TPDU is matched to its OSDU with pdu.Decode, so each OSDU
// (VC, seq) gets one record holding the boundary timestamps of its chain:
//
//	cbuf.write → transport.src_queue → <substrate>.send → <substrate>.wire
//	  → transport.rx → transport.sink
//
// On the relay workload an egress OSDU's chain hangs off the ingest OSDU's
// through a relay.splice span. Records stay in memory and become spans
// when the run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cmtos/internal/core"
	"cmtos/internal/netif"
	"cmtos/internal/pdu"
	"cmtos/internal/resv"
)

// osduKey names one OSDU; gen tells apart the stacks a run builds, whose
// VC ids repeat.
type osduKey struct {
	gen uint32
	vc  core.VCID
	seq core.OSDUSeq
}

type pktKey struct {
	gen uint32
	vc  core.VCID
	seq uint64 // TPDU sequence number
}

// osduRec holds one OSDU's boundary times in ns since the tracer epoch;
// 0 means the boundary was not seen.
type osduRec struct {
	w0, w1 int64 // Write called, Write returned
	s0     int64 // first DT handed to the substrate
	s1     int64 // last DT's Send returned
	h0, h1 int64 // latest DT into the entity's handler, handler returned
	r1     int64 // Read returned
	dts    int32 // DTs sent, retransmissions included
}

type tracer struct {
	epoch     time.Time
	substrate string // "udpnet" or "netem"
	runOff    int64  // run epoch minus tracer epoch, ns; set before the load starts
	gens      atomic.Uint32

	mu      sync.Mutex
	osdus   map[osduKey]*osduRec
	inFlt   map[pktKey]int64   // DT Send-return time awaiting its arrival
	wire    []float64          // µs per DT, Send return → peer handler entry
	reserve []float64          // µs per Reserve call
	release []float64          // µs per Release call
	conn    []float64          // µs per Connect call
	disc    []float64          // µs per Disconnect call
	ingest  map[core.VCID]bool // relay ingest VCs

	sendNs, sendN atomic.Int64
	rxNs, rxN     atomic.Int64
	refusals      atomic.Int64
	kinds         [32]atomic.Int64 // packets sent, by pdu.Kind
}

func newTracer(substrate string) *tracer {
	return &tracer{
		epoch:     time.Now(),
		substrate: substrate,
		osdus:     make(map[osduKey]*osduRec),
		inFlt:     make(map[pktKey]int64),
		ingest:    make(map[core.VCID]bool),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// rec returns the record for an OSDU, creating it; t.mu must be held.
func (t *tracer) rec(k osduKey) *osduRec {
	r := t.osdus[k]
	if r == nil {
		r = &osduRec{}
		t.osdus[k] = r
	}
	return r
}

// wrote records one timed Write call; times are ns since the run epoch.
func (t *tracer) wrote(gen uint32, vc core.VCID, seq core.OSDUSeq, w0, w1 int64) {
	t.mu.Lock()
	r := t.rec(osduKey{gen, vc, seq})
	r.w0, r.w1 = w0+t.runOff, w1+t.runOff
	t.mu.Unlock()
}

// read records a Read return; r1 is ns since the run epoch.
func (t *tracer) read(gen uint32, vc core.VCID, seq core.OSDUSeq, r1 int64) {
	t.mu.Lock()
	t.rec(osduKey{gen, vc, seq}).r1 = r1 + t.runOff
	t.mu.Unlock()
}

func (t *tracer) timed(dst *[]float64, d time.Duration) {
	t.mu.Lock()
	*dst = append(*dst, float64(d)/1e3)
	t.mu.Unlock()
}

// markIngest names a VC whose OSDUs a relay splice re-publishes.
func (t *tracer) markIngest(vc core.VCID) {
	t.mu.Lock()
	t.ingest[vc] = true
	t.mu.Unlock()
}

func decodeData(b []byte) *pdu.Data {
	if k, ok := pdu.PeekKind(b); !ok || k != pdu.KindData {
		return nil
	}
	m, err := pdu.Decode(b)
	if err != nil {
		return nil
	}
	d, _ := m.(*pdu.Data)
	return d
}

// netShim is a pass-through netif.Network that timestamps every Send and
// every handler call. It deliberately offers no BatchSender: the
// transport only ever calls Send.
type netShim struct {
	netif.Network
	t   *tracer
	gen uint32
}

func (n *netShim) Send(p netif.Packet) error {
	k, _ := pdu.PeekKind(p.Payload)
	d := decodeData(p.Payload)
	t0 := n.t.now()
	err := n.Network.Send(p)
	t1 := n.t.now()
	t := n.t
	t.sendNs.Add(t1 - t0)
	t.sendN.Add(1)
	t.kinds[k&31].Add(1)
	if d != nil && err == nil {
		t.mu.Lock()
		r := t.rec(osduKey{n.gen, d.VC, d.OSDU})
		if r.s0 == 0 {
			r.s0 = t0
		}
		r.s1 = t1
		r.dts++
		t.inFlt[pktKey{n.gen, d.VC, d.Seq}] = t1
		t.mu.Unlock()
	}
	return err
}

func (n *netShim) SetHandler(id core.HostID, h netif.Handler) error {
	if h == nil {
		return n.Network.SetHandler(id, nil)
	}
	t, gen := n.t, n.gen
	return n.Network.SetHandler(id, func(p netif.Packet) {
		ta := t.now()
		d := decodeData(p.Payload)
		h0 := t.now()
		h(p)
		h1 := t.now()
		t.rxNs.Add(h1 - h0)
		t.rxN.Add(1)
		if d == nil || p.Damaged {
			return
		}
		t.mu.Lock()
		k := pktKey{gen, d.VC, d.Seq}
		if sent, ok := t.inFlt[k]; ok {
			delete(t.inFlt, k)
			t.wire = append(t.wire, float64(ta-sent)/1e3)
		}
		r := t.rec(osduKey{gen, d.VC, d.OSDU})
		r.h0, r.h1 = h0, h1
		t.mu.Unlock()
	})
}

// resvShim is a pass-through resv.Reserver timing admission.
type resvShim struct {
	resv.Reserver
	t *tracer
}

func (r *resvShim) Reserve(src, dst core.HostID, bytesPerSec float64) (resv.ID, []core.HostID, error) {
	t0 := time.Now()
	id, path, err := r.Reserver.Reserve(src, dst, bytesPerSec)
	r.t.timed(&r.t.reserve, time.Since(t0))
	if err != nil {
		r.t.refusals.Add(1)
	}
	return id, path, err
}

func (r *resvShim) Release(id resv.ID) error {
	t0 := time.Now()
	err := r.Reserver.Release(id)
	r.t.timed(&r.t.release, time.Since(t0))
	return err
}

// span is one layer's interval of one OSDU's chain.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a chain's root
	OSDU   int    `json:"osdu"`   // span id shared by one OSDU's spans
	Stack  uint32 `json:"stack"`
	VC     uint32 `json:"vc"`
	Seq    uint64 `json:"seq"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans turns the records into parent-linked span chains. A boundary that
// was not seen ends the chain there.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]osduKey, 0, len(t.osdus))
	for k := range t.osdus {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].gen != keys[j].gen {
			return keys[i].gen < keys[j].gen
		}
		if keys[i].vc != keys[j].vc {
			return keys[i].vc < keys[j].vc
		}
		return keys[i].seq < keys[j].seq
	})
	var out []span
	lastOf := make(map[osduKey]int) // the span an egress chain hangs off
	var ingestVCs []core.VCID
	for vc := range t.ingest {
		ingestVCs = append(ingestVCs, vc)
	}
	add := func(k osduKey, osdu, parent int, name string, a, b int64) int {
		if b < a {
			b = a
		}
		out = append(out, span{ID: len(out), Parent: parent, OSDU: osdu, Stack: k.gen,
			VC: uint32(k.vc), Seq: uint64(k.seq), Name: name, Start: a, End: b})
		return len(out) - 1
	}
	osdus := 0
	build := func(k osduKey, r *osduRec, parent int, from int64) {
		osdu := osdus
		osdus++
		at := from
		next := func(name string, until int64) bool {
			if until == 0 || at == 0 {
				return false
			}
			parent = add(k, osdu, parent, name, at, until)
			at = until
			return true
		}
		switch {
		case r.w0 != 0:
			at = r.w0
			if !next("cbuf.write", r.w1) || !next("transport.src_queue", r.s0) {
				return
			}
		case parent >= 0:
			if !next("relay.splice", r.s0) {
				return
			}
		default:
			at = r.s0
		}
		if !next(t.substrate+".send", r.s1) || !next(t.substrate+".wire", r.h0) ||
			!next("transport.rx", r.h1) {
			return
		}
		lastOf[k] = parent
		next("transport.sink", r.r1)
	}
	// Ingest chains first, so egress chains can link to them.
	for _, k := range keys {
		if t.ingest[k.vc] {
			build(k, t.osdus[k], -1, 0)
		}
	}
	for _, k := range keys {
		if t.ingest[k.vc] {
			continue
		}
		r := t.osdus[k]
		parent, from := -1, int64(0)
		for _, in := range ingestVCs {
			ik := osduKey{k.gen, in, k.seq}
			if p, ok := lastOf[ik]; ok {
				parent, from = p, t.osdus[ik].h1
			}
		}
		build(k, r, parent, from)
	}
	return out
}

// selfTimes returns, per span name, the summed self time in ns and the
// span count. Self time is a span's duration minus the part of it that
// its child spans cover.
func selfTimes(sp []span) map[string][2]int64 {
	children := make(map[int][]int)
	for i, s := range sp {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string][2]int64)
	for i, s := range sp {
		var iv [][2]int64
		for _, c := range children[i] {
			a, b := max(sp[c].Start, s.Start), min(sp[c].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, end := int64(0), int64(-1)
		for _, x := range iv {
			if x[0] > end {
				covered += x[1] - x[0]
				end = x[1]
			} else if x[1] > end {
				covered += x[1] - end
				end = x[1]
			}
		}
		acc := out[s.Name]
		acc[0] += s.End - s.Start - covered
		acc[1]++
		out[s.Name] = acc
	}
	return out
}

// writeSpans writes every span as one JSON line under dir.
func writeSpans(dir, name string, sp []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range sp {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// printSelfTimes writes the self-time report: per span name, mean self
// time per span and its share of all self time.
func printSelfTimes(w io.Writer, st map[string][2]int64) (top string) {
	var total int64
	names := make([]string, 0, len(st))
	for n, v := range st {
		names = append(names, n)
		total += v[0]
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]][0] > st[names[j]][0] })
	fmt.Fprintf(w, "self time by span (outside-in trace):\n")
	for _, n := range names {
		v := st[n]
		fmt.Fprintf(w, "  %-22s %9d spans  mean self %10.1f µs  share %5.1f%%\n",
			n, v[1], float64(v[0])/float64(v[1])/1e3, 100*float64(v[0])/float64(max(total, 1)))
	}
	if len(names) > 0 {
		top = names[0]
	}
	return top
}

// fill reports the trace's per-layer metrics; ops is the run's completed
// ops and seconds its traced wall time.
func (t *tracer) fill(layer map[string]float64, sp []span, ops, seconds float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var write, queue, sink []float64
	var dts, withDT, egressDT, ingested float64
	for k, r := range t.osdus {
		if r.w0 != 0 && r.w1 != 0 {
			write = append(write, float64(r.w1-r.w0)/1e3)
			if r.s0 != 0 {
				queue = append(queue, float64(r.s0-r.w1)/1e3)
			}
		}
		if r.h0 != 0 && r.r1 != 0 {
			sink = append(sink, float64(r.r1-r.h0)/1e3)
		}
		if r.dts > 0 {
			dts += float64(r.dts)
			withDT++
		}
		switch {
		case t.ingest[k.vc]:
			ingested++
		case len(t.ingest) > 0:
			egressDT += float64(r.dts)
		}
	}
	pct := func(prefix string, xs []float64) {
		sort.Float64s(xs)
		layer[prefix+"_p50"] = quantile(xs, 0.5)
		layer[prefix+"_p99"] = quantile(xs, 0.99)
	}
	pct("cbuf.write_us", write)
	pct("transport.src_queue_us", queue)
	pct("transport.sink_us", sink)
	pct("transport.connect_us", t.conn)
	pct(t.substrate+".wire_us", t.wire)
	sort.Float64s(t.disc)
	layer["transport.disconnect_us_p50"] = quantile(t.disc, 0.5)
	layer["transport.rx_ns_per_pkt"] = ratio(float64(t.rxNs.Load()), float64(t.rxN.Load()))
	layer["transport.dt_per_osdu"] = ratio(dts, withDT)
	for kind, name := range map[pdu.Kind]string{pdu.KindAck: "ak", pdu.KindFlowOff: "xoff", pdu.KindFlowOn: "xon"} {
		layer["transport."+name+"_per_kosdu"] = 1000 * ratio(float64(t.kinds[kind].Load()), ops)
	}
	layer["transport.qr_per_s"] = ratio(float64(t.kinds[pdu.KindQoSReport].Load()), seconds)
	layer[t.substrate+".send_ns_per_pkt"] = ratio(float64(t.sendNs.Load()), float64(t.sendN.Load()))
	layer["relay.egress_dt_per_osdu"] = ratio(egressDT, ingested)
	sort.Float64s(t.reserve)
	sort.Float64s(t.release)
	layer["resv.reserve_us_p50"] = quantile(t.reserve, 0.5)
	layer["resv.release_us_p50"] = quantile(t.release, 0.5)
	layer["resv.refusals"] = float64(t.refusals.Load())
	for name, v := range selfTimes(sp) {
		layer["span."+genericSpan(name)+".self_us"] = float64(v[0]) / float64(v[1]) / 1e3
	}
}

// genericSpan names a span independently of the substrate that carried
// it, so both substrates report under one metric name.
func genericSpan(name string) string {
	for _, sub := range []string{"udpnet.", "netem."} {
		if len(name) > len(sub) && name[:len(sub)] == sub {
			return "substrate." + name[len(sub):]
		}
	}
	return name
}
