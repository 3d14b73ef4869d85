package main

import "time"

// The reference box is a shared virtual machine whose speed moves by tens of
// percent for seconds at a time, far more than any bound a regression gate
// could use. So every host time is taken next to a calibration kernel: a
// fixed piece of arithmetic over a table that fits in L1/L2, timed just
// before and just after the thing measured. hostSpeed is how fast the box
// ran it, as a share of the reference box at its quietest, and a host time
// is reported as it would have been at speed 1: measured × speed. On the
// runs that sized the benchmark this cut the run-to-run spread of cycles/s
// from 8-20 % to 1-5 %. The raw figures are kept beside the normalised ones.
const (
	calibIters = 900_000
	// calibNominalS is the kernel's time on the reference box when nothing
	// else contends for the core.
	calibNominalS = 2.07e-3
)

var (
	calibTable [1 << 15]uint64
	calibSink  uint64
)

func hostSpeed() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (1<<15 - 1)
		calibTable[j] += x
		acc += calibTable[(j*7+1)&(1<<15-1)]
	}
	calibSink += acc
	return calibNominalS / time.Since(t0).Seconds()
}
