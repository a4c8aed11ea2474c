package main

import (
	"crypto/sha256"
	"slices"
	"time"
)

// The benchmark's host is shared, and its speed drifts by a fifth or
// more within minutes: other tenants slow every thread, compute-bound
// ones included, though the kernel counts almost no CPU time as
// stolen. Runs of one workload taken minutes apart therefore differ
// more than a bound worth setting. The probe is a fixed computation the
// client times between requests. It calls no code of the service,
// allocates nothing, and stays in the core's own caches, so its time
// moves only with the host's speed. The end-to-end times are divided
// by the run's slowdown, its median probe time over probeNominal, and
// so read as times on a host running at that speed.
type probe struct {
	keys, work []uint32
	buf        []byte
	sum        [sha256.Size]byte
}

// probeNominal is about the probe's median time on the host the bounds
// were set on.
const probeNominal = 1800 * time.Microsecond

// probeEvery is how often the client probes: often enough that the
// probes see the host as the requests around them do, at a few percent
// of the timed phase.
const probeEvery = 100 * time.Millisecond

func newProbe() *probe {
	p := &probe{keys: make([]uint32, 1<<14), work: make([]uint32, 1<<14), buf: make([]byte, 1<<16)}
	x := uint64(1)
	for i := range p.keys {
		x = splitmix(x)
		p.keys[i] = uint32(x)
		p.buf[4*i], p.buf[4*i+1], p.buf[4*i+2], p.buf[4*i+3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
	}
	return p
}

// run sorts a copy of the keys and hashes the buffer twice and times
// the second round; the first brings the probe's memory back into the
// caches the requests in between evicted it from.
func (p *probe) run() time.Duration {
	p.round()
	start := time.Now()
	p.round()
	return time.Since(start)
}

func (p *probe) round() {
	copy(p.work, p.keys)
	slices.Sort(p.work)
	p.sum = sha256.Sum256(p.buf)
}

// slowdown is the run's median probe time over probeNominal.
func slowdown(probes []time.Duration) float64 {
	ms := make([]float64, len(probes))
	for i, d := range probes {
		ms[i] = millis(d)
	}
	return median(ms) / millis(probeNominal)
}
