package main

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// op is one scheduled request of a ladder step: a stored-probe query,
// or (write) a remove+resubmit of the writer's module.
type op struct {
	due   time.Duration // offset from the step start
	write bool
	probe int
}

// stepResult is one ladder step's outcome. Latencies are timed from
// when each request was due, so a stall also charges the requests
// queued behind it; a request never sent (dropped once it was more
// than dropAfter overdue) or failed counts at no less than the limit.
type stepResult struct {
	seconds float64

	failed, dropped int
	p50, p99        float64 // ms, over queries
	lateP99         float64 // ms the generator overslept its own schedule
	backlog         int     // requests not yet started when the schedule ended

	valid, pass bool
}

// dropAfter bounds how long a saturated step keeps draining.
const dropAfter = time.Second

// loadWorkers is the number of load goroutines, each holding at most
// one connection: the host's CPU count on the two-CPU reference host.
const loadWorkers = 2

// runStep drives one open-loop step: queries at rate for dur, plus a
// write every writePeriod, issued by loadWorkers goroutines in due
// order. query and write report whether their requests succeeded.
func runStep(rate float64, dur time.Duration, l ladder, nProbes int, stepNo int,
	query func(probe int) bool, write func() bool) stepResult {
	n := int(rate * dur.Seconds())
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, op{due: time.Duration(float64(i) * float64(time.Second) / rate), probe: (stepNo*7919 + i) % nProbes})
	}
	// Writes come early in each period, so the backlog one causes has
	// the rest of the period to drain.
	for t := l.writePeriod / 8; l.writePeriod > 0 && t < dur; t += l.writePeriod {
		ops = append(ops, op{due: t, write: true})
	}
	slices.SortStableFunc(ops, func(a, b op) int { return int(a.due - b.due) })

	lat := make([]float64, len(ops))
	late := make([]float64, len(ops))
	slept := make([]bool, len(ops))
	okv := make([]bool, len(ops))
	sent := make([]bool, len(ops))
	var next atomic.Int64
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					late[i] = ms(time.Since(due))
					slept[i] = true
				} else if -wait > dropAfter {
					lat[i] = ms(-wait)
					continue
				}
				sent[i] = true
				if ops[i].write {
					okv[i] = write()
				} else {
					okv[i] = query(ops[i].probe)
				}
				lat[i] = ms(time.Since(due))
			}
		}()
	}
	time.Sleep(time.Until(start.Add(dur)))
	backlog := len(ops) - int(min(next.Load(), int64(len(ops))))
	wg.Wait()

	res := stepResult{seconds: dur.Seconds(), backlog: backlog}
	var qlat, glate []float64 // qlat in due order
	for i, o := range ops {
		if slept[i] {
			glate = append(glate, late[i])
		}
		if o.write {
			continue
		}
		switch {
		case !sent[i]:
			res.dropped++
			qlat = append(qlat, max(lat[i], l.limitMs))
		case !okv[i]:
			res.failed++
			qlat = append(qlat, max(lat[i], l.limitMs))
		default:
			qlat = append(qlat, lat[i])
		}
	}
	res.p50 = quantile(qlat, 0.5)
	res.p99 = windowedP99(qlat, int(rate*p99Window.Seconds()))
	res.lateP99 = quantile(glate, 0.99)
	// A backlog of more than 20 ms of arrivals left at the end of the
	// schedule means the queue was growing.
	growing := backlog > max(2, int(rate*0.02))
	res.valid = res.lateP99 <= l.lateLimitMs
	res.pass = res.valid && res.p99 <= l.limitMs && !growing && res.failed == 0 && res.dropped == 0
	return res
}

// p99Window is the span each p99 is taken over; a step's p99 is the
// median of its windows' p99s, so one stall of the shared host does not
// decide it. At 500 q/s a window still has ten samples beyond its p99.
const p99Window = 2 * time.Second

// windowedP99 splits xs (latencies in due order) into windows of w and
// returns the median of the windows' p99s; a trailing part shorter
// than half a window joins the previous one.
func windowedP99(xs []float64, w int) float64 {
	if w < 1 || len(xs) < 2*w {
		return quantile(xs, 0.99)
	}
	var p99s []float64
	for lo := 0; lo < len(xs); lo += w {
		hi := lo + w
		if len(xs)-hi < w/2 {
			hi = len(xs)
		}
		p99s = append(p99s, quantile(xs[lo:hi], 0.99))
		if hi == len(xs) {
			break
		}
	}
	return median(p99s)
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}
