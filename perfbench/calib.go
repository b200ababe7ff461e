package main

// The machines this benchmark runs on share their cores with other
// tenants, and their speed drifts by up to 2x within minutes. Host times
// are therefore reported in reference-host units: a fixed calibration
// kernel runs before every cell and after the last one, and each cell's
// times are scaled by the kernel's reference time over its mean measured
// time around the cell. The kernel is the benchmark's own code, not the
// simulator's, so a change to the simulator moves the scaled times just
// as it moves the raw ones.
//
// The kernel has two halves, because the simulator's host time depends on
// two resources the other tenants contend for: an interpreter-like loop
// of data-dependent loads, stores and branches over 1 MiB, and a burst of
// small pointerful allocations that keeps the garbage collector working.
// Scaling by either half alone left two to three times more pass-to-pass
// spread than scaling by both.

// calibRefNS is the calibration kernel's time on an unloaded 2-core Xeon.
const calibRefNS = 3e6

const (
	calibRounds = 1 << 17 // interpreter-loop iterations, about 1.5 ms
	calibAllocs = 40000   // allocations, about 1.5 ms
)

var (
	calibMem  = make([]uint64, 1<<17) // 1 MiB
	calibSink uint64
	calibKeep []*calibNode
)

type calibNode struct {
	next *calibNode
	v    [4]uint64
}

// calibrate runs the calibration kernel and returns its host time in
// nanoseconds.
func calibrate() int64 {
	t0 := wallNow()
	calibSink += calibLoop(calibRounds)
	calibAlloc(calibAllocs)
	return int64(wallNow().Sub(t0))
}

// calibLoop interprets a fixed pseudo-random instruction stream over
// calibMem.
func calibLoop(rounds int) uint64 {
	m := calibMem
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < rounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		idx := x & uint64(len(m)-1)
		switch x >> 62 {
		case 0:
			acc += m[idx]
		case 1:
			m[idx] = acc ^ x
		case 2:
			acc = acc*31 + x
		default:
			if acc&1 == 0 {
				acc >>= 1
			} else {
				acc = acc*3 + 1
			}
		}
	}
	return acc
}

// calibAlloc allocates n linked nodes and keeps one in eight reachable
// until the next call, so the collector has live pointers to trace.
func calibAlloc(n int) {
	calibKeep = calibKeep[:0]
	var keep *calibNode
	for i := 0; i < n; i++ {
		x := &calibNode{next: keep}
		x.v[0] = uint64(i)
		if i%8 == 0 {
			keep = x
		}
		if i%500 == 0 {
			calibKeep = append(calibKeep, keep)
			keep = nil
		}
	}
}
