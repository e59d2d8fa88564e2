package main

import (
	"fmt"
	"runtime"
	"time"
)

// minIterations keeps at least ten samples beyond iter_ms_p90.
const minIterations = 100

// endToEnd runs fresh iterations of the plan with tracing off for
// about budget and reports every end-to-end metric. Each iteration's
// host times are scaled by the calibration pass made just before it
// (calibrate.go). Before each timed run it forces a garbage collection,
// outside the timed region, so every run starts from the same heap:
// without it, whether a collection lands inside a given run depends on
// what earlier runs left behind.
func endToEnd(p *plan, budget time.Duration) (*result, error) {
	res := newResult()
	var want uint64
	if p.sharded {
		d, err := serialDigest(p)
		if err != nil {
			return nil, err
		}
		want = d
	}
	// One untimed warm-up run fills pools and caches.
	warm, err := setupIteration(p, false)
	if err != nil {
		return nil, err
	}
	warm.execute()

	msgs := p.messages()
	var setups, runs, raw, heaps []float64
	var allocs uint64
	var virt float64
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	var speed hostSpeed
	for n := 0; n < minIterations || time.Since(start) < budget; n++ {
		if time.Since(start) > 4*budget+30*time.Second {
			return nil, fmt.Errorf("%s: %d iterations took %v; the run would not end in time", p.name, n, time.Since(start))
		}
		speed.sample()
		it, err := setupIteration(p, false)
		if err != nil {
			return nil, err
		}
		f := calRefMs / speed.passes[n]
		setups = append(setups, f*it.setup.Seconds())
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		heaps = append(heaps, float64(ms0.HeapAlloc)/(1<<20))
		it.execute()
		runtime.ReadMemStats(&ms1)
		allocs += ms1.TotalAlloc - ms0.TotalAlloc
		runs = append(runs, f*ms(it.run))
		raw = append(raw, ms(it.run))

		res.Attempted += msgs
		failed := check(p, it.rec)
		if p.sharded && failed == 0 && digest(it.rec) != want {
			failed = msgs
		}
		res.Failed += failed
		virt = it.makespan().Microseconds() / float64(msgs)
	}
	total := float64(len(runs) * msgs)
	res.set("setup_s", median(setups), "s")
	// Throughput from the median run rather than the total: a burst of
	// interference from outside the process moves a mean but not a
	// median.
	res.set("msgs_per_s", float64(msgs)/(median(runs)/1e3), "1/s")
	res.set("iter_ms_p50", median(runs), "ms")
	res.set("iter_ms_p90", percentile(runs, 90), "ms")
	res.set("alloc_bytes_per_msg", float64(allocs)/total, "B")
	res.set("live_heap_mb", median(heaps), "MB")
	res.set("virt_us_per_msg", virt, "us")
	res.note = fmt.Sprintf("%d iterations of %d messages; failed_frac %.6g; host speed %.4f of reference (raw iter_ms_p50 %.4g)",
		len(runs), msgs, res.failedFrac(), speed.factor(), median(raw))
	return res, nil
}

// serialDigest runs the plan once on the serial kernel, outside any
// timed region, and fingerprints its deliveries.
func serialDigest(p *plan) (uint64, error) {
	it, err := setupIteration(p, true)
	if err != nil {
		return 0, err
	}
	it.execute()
	if f := check(p, it.rec); f > 0 || it.runErr != nil {
		return 0, fmt.Errorf("%s: serial reference run failed %d of %d messages (%v)", p.name, f, p.messages(), it.runErr)
	}
	return digest(it.rec), nil
}
