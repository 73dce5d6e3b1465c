package main

import (
	"encoding/binary"
	"fmt"
)

// Every OSDU the benchmark writes is self-describing, so a reader can check
// what it got without sharing state with the writer:
//
//	[0:4)   writer index (which source VC of the workload)
//	[4:8)   payload length
//	[8:16)  OSDU sequence number the writer expects Write to assign
//	[16:24) due time, ns since the run's epoch
//	[24:32) when the writer called Write, ns since the run's epoch
//	[32:)   bytes drawn from a generator keyed by (seed, writer, seq)
//
// On a closed loop the due time is the Write call. The two times are set
// by stamp just before the OSDU is written.
const payloadHeader = 32

// fill writes one OSDU's payload into buf, times left at 0.
func fill(buf []byte, seed uint64, writer uint32, seq uint64) {
	binary.LittleEndian.PutUint32(buf[0:], writer)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(buf)))
	binary.LittleEndian.PutUint64(buf[8:], seq)
	binary.LittleEndian.PutUint64(buf[16:], 0)
	binary.LittleEndian.PutUint64(buf[24:], 0)
	g := contentSeed(seed, writer, seq)
	body := buf[payloadHeader:]
	for len(body) >= 8 {
		binary.LittleEndian.PutUint64(body, splitmix(&g))
		body = body[8:]
	}
	if len(body) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], splitmix(&g))
		copy(body, tail[:])
	}
}

// stamp sets a filled payload's due and Write-call times.
func stamp(buf []byte, due, wrote int64) {
	binary.LittleEndian.PutUint64(buf[16:], uint64(due))
	binary.LittleEndian.PutUint64(buf[24:], uint64(wrote))
}

// verify checks a delivered payload against the writer and sequence the
// reader expects, and returns the due and Write-call times it carries.
func verify(p []byte, seed uint64, writer uint32, seq uint64) (due, wrote int64, err error) {
	if len(p) < payloadHeader {
		return 0, 0, fmt.Errorf("payload of %d bytes is shorter than its header", len(p))
	}
	if w := binary.LittleEndian.Uint32(p[0:]); w != writer {
		return 0, 0, fmt.Errorf("seq %d: payload from writer %d on writer %d's VC", seq, w, writer)
	}
	if n := binary.LittleEndian.Uint32(p[4:]); int(n) != len(p) {
		return 0, 0, fmt.Errorf("seq %d: payload is %d bytes, header says %d", seq, len(p), n)
	}
	if s := binary.LittleEndian.Uint64(p[8:]); s != seq {
		return 0, 0, fmt.Errorf("OSDU seq %d carries payload of seq %d", seq, s)
	}
	g := contentSeed(seed, writer, seq)
	body := p[payloadHeader:]
	for len(body) >= 8 {
		if binary.LittleEndian.Uint64(body) != splitmix(&g) {
			return 0, 0, fmt.Errorf("seq %d: payload content differs from what was written", seq)
		}
		body = body[8:]
	}
	if len(body) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], splitmix(&g))
		for i := range body {
			if body[i] != tail[i] {
				return 0, 0, fmt.Errorf("seq %d: payload tail differs from what was written", seq)
			}
		}
	}
	return int64(binary.LittleEndian.Uint64(p[16:])), int64(binary.LittleEndian.Uint64(p[24:])), nil
}

func contentSeed(seed uint64, writer uint32, seq uint64) uint64 {
	g := seed ^ uint64(writer)<<48 ^ seq*0x9e3779b97f4a7c15
	splitmix(&g)
	return g
}

// splitmix is SplitMix64: a fast, well-mixed generator whose whole state
// is one word, so any OSDU's content can be regenerated from its key.
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
