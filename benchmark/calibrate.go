package main

import (
	"runtime"
	"strconv"
	"time"
)

// The box this benchmark runs on is a small shared VM whose speed
// drifts by a third over minutes: the same search takes 1.6 s in one
// phase and 2.2 s in the next, in CPU time as much as in wall time, so
// it is the neighbours' use of the shared cores and caches, not
// scheduling. No median inside a 10 s run can average that out. So
// every run also times a fixed reference loop of its own, in bursts
// between its set-ups and ops (about a fifth of the run's time), and
// reports its times in calibrated seconds: wall seconds times
// calibrationRef over the lower quartile of the run's calibrations. The reference loop
// is benchmark code on the standard library only — no change to the
// program under test can speed it up — and it stresses what the checker
// stresses: small allocations, a growing hash map, byte-wise hashing,
// the garbage collector. It takes many samples to be worth anything:
// on ten minutes of alternating 0.1 s searches, 75 samples per 15 s
// window halved the spread between windows (11 % to 5.6 %) and 12
// samples did nothing. The raw wall seconds and the speed factor stay
// in the run file and the printed table.

// calibrationRef is the lower quartile of calibrate() on the box the
// baseline was pinned on (the median over 70 runs): the scale that
// makes a calibrated second read as a second there.
const calibrationRef = 0.0247

// calibrationShare is the part of an op's wall spent calibrating
// after it, within burstMin..burstMax samples.
const (
	calibrationShare = 0.25
	burstMin         = 2
	burstMax         = 12
)

type calNode struct {
	key  [2]uint64
	next *calNode
	buf  []byte
}

var calSink uint64

// calibrate runs the reference loop once and returns its wall seconds.
func calibrate() float64 {
	t0 := time.Now()
	seen := make(map[[2]uint64]*calNode)
	var ring [2048]*calNode
	var scratch [160]byte
	for i := 0; i < 100000; i++ {
		b := scratch[:0]
		for j := 0; j < 6; j++ {
			b = strconv.AppendInt(b, int64(i*31+j*17)%9973, 10)
			b = append(b, '|')
		}
		var hi, lo uint64 = 0x6c62272e07bb0142, 0x62b821756295c58d
		for _, c := range b {
			lo ^= uint64(c)
			lo *= 1099511628211
			hi = hi*31 + lo>>7
		}
		k := [2]uint64{hi, lo % 4096}
		nd := &calNode{key: k, buf: append([]byte(nil), b...), next: ring[(i*7)%len(ring)]}
		if old, ok := seen[k]; ok {
			calSink += uint64(len(old.buf))
		}
		seen[k] = nd
		ring[i%len(ring)] = nd
	}
	calSink += uint64(len(seen))
	return time.Since(t0).Seconds()
}

// calibrateAfter takes the burst of calibrations that follows an
// interval of wall seconds. It collects first, so the reference loop
// always starts from a small heap whatever ran before it.
func calibrateAfter(wall float64) []float64 {
	n := int(wall * calibrationShare / calibrationRef)
	n = max(burstMin, min(burstMax, n))
	runtime.GC()
	cals := make([]float64, n)
	for i := range cals {
		cals[i] = calibrate()
	}
	return cals
}
