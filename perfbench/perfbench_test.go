package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"hpcvorx/internal/obs"
)

func mustPlan(t *testing.T, name string, seed int64) *plan {
	t.Helper()
	p, err := makePlan(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustRun(t *testing.T, p *plan, serial bool, prep func(*iteration)) *iteration {
	t.Helper()
	it, err := runOnce(p, serial, prep)
	if err != nil {
		t.Fatal(err)
	}
	if it.runErr != nil {
		t.Fatalf("%s: run: %v", p.name, it.runErr)
	}
	return it
}

func TestEveryWorkloadDeliversEverything(t *testing.T) {
	for _, name := range workloads {
		for _, seed := range []int64{1, 2} {
			p := mustPlan(t, name, seed)
			it := mustRun(t, p, false, nil)
			if f := check(p, it.rec); f != 0 {
				t.Errorf("%s seed %d: %d of %d messages failed", name, seed, f, p.messages())
			}
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloads {
		a, b, c := mustPlan(t, name, 7), mustPlan(t, name, 7), mustPlan(t, name, 8)
		if a.messages() != c.messages() {
			t.Errorf("%s: message count depends on the seed: %d vs %d", name, a.messages(), c.messages())
		}
		if planBytes(a) != planBytes(b) || planBytes(a) == planBytes(c) {
			t.Errorf("%s: bytes %d, %d (same seed), %d (other seed)", name, planBytes(a), planBytes(b), planBytes(c))
		}
	}
}

func planBytes(p *plan) int {
	n := 0
	for _, w := range p.writers {
		for _, s := range w.sizes {
			n += s
		}
	}
	return n
}

func TestCheckerCountsBadDeliveries(t *testing.T) {
	p := &plan{writers: []writer{{sizes: []int{10, 20, 30, 40}}}}
	good := []delivery{{0, 10, 1}, {1, 20, 2}, {2, 30, 3}, {3, 40, 4}}
	for _, tc := range []struct {
		name     string
		got      []delivery
		writeErr int
		want     int
	}{
		{"intact", good, 0, 0},
		{"dropped", []delivery{good[0], good[1], good[3]}, 0, 1},
		{"reordered", []delivery{good[0], good[2], good[1], good[3]}, 0, 2},
		{"duplicated", []delivery{good[0], good[1], good[1], good[2], good[3]}, 0, 1},
		{"wrong size", []delivery{good[0], {1, 21, 2}, good[2], good[3]}, 0, 2},
		{"write error", good[:2], 2, 2},
	} {
		rec := newRecorder(p)
		rec.got[0] = tc.got
		rec.writeErr[0] = tc.writeErr
		if got := check(p, rec); got != tc.want {
			t.Errorf("%s: check = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestShardedDigestEqualsSerial(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		p := mustPlan(t, wlPairs, seed)
		sh := mustRun(t, p, false, nil)
		se := mustRun(t, p, true, nil)
		if sh.sh == nil || se.sys == nil {
			t.Fatal("expected one sharded and one serial build")
		}
		if digest(sh.rec) != digest(se.rec) {
			t.Errorf("seed %d: sharded digest %x, serial %x", seed, digest(sh.rec), digest(se.rec))
		}
		want, err := serialDigest(p)
		if err != nil || want != digest(se.rec) {
			t.Errorf("seed %d: serialDigest = %x, %v", seed, want, err)
		}
	}
}

func TestTracedRunPartitionIsExact(t *testing.T) {
	for _, name := range workloads {
		p := mustPlan(t, name, 1)
		kc, an := &kindCounter{}, obs.NewAnalyzer()
		it := mustRun(t, p, true, func(it *iteration) { enableTrace(it, obs.Tee(kc, an)) })
		rep := an.Report()
		if err := rep.Check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if rep.CompleteWrites() != p.messages() {
			t.Errorf("%s: %d complete writes, want %d", name, rep.CompleteWrites(), p.messages())
		}
		if kc.total == 0 || check(p, it.rec) != 0 {
			t.Errorf("%s: %d events traced, %d messages failed", name, kc.total, check(p, it.rec))
		}
	}
}

func TestPerLayerReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced pass")
	}
	for _, name := range []string{wlFanin, wlPairs} {
		res, err := perLayer(mustPlan(t, name, 1), 500*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d failed", name, res.Failed, res.Attempted)
		}
		sum := 0.0
		for _, b := range cpuBuckets {
			sum += res.Metrics["host.cpu_share."+b].Value
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: CPU shares sum to %v", name, sum)
		}
		cross := res.Metrics["sim.group.cross_posts_per_msg"].Value
		if (name == wlPairs) != (cross > 0) {
			t.Errorf("%s: sim.group.cross_posts_per_msg = %v", name, cross)
		}
		for _, m := range []string{"sim.kernel_ns_per_event", "kern.handoff_ns", "hpc.send_path_ns", "netif.deliver_ns", "channels.write_ns", "sim.events_per_msg"} {
			if v := res.Metrics[m].Value; !(v > 0) {
				t.Errorf("%s: %s = %v", name, m, v)
			}
		}
	}
}

func TestBucketOfTakesInnermostInternalFrame(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "fmt.Sprintf", "hpcvorx/internal/channels.(*Service).accept", "hpcvorx/internal/sim.(*Kernel).Run"}, "channels"},
		{[]string{"hpcvorx/internal/sim.(*Kernel).Run.func1", "main.(*iteration).execute"}, "sim"},
		{[]string{"hpcvorx/internal/topo.(*Topology).Route"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.park_m", "runtime.mcall"}, "sched"},
		{[]string{"main.check", "main.main"}, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestAttributeReadsRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	p := mustPlan(t, wlStream, 1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		mustRun(t, p, false, nil)
	}
	pprof.StopCPUProfile()
	counts := map[string]int64{}
	if err := attribute(buf.Bytes(), counts); err != nil {
		t.Fatal(err)
	}
	var total int64
	for b, n := range counts {
		if !strings.Contains(strings.Join(cpuBuckets, " "), b) {
			t.Errorf("unknown bucket %q", b)
		}
		total += n
	}
	if total == 0 {
		t.Skip("no samples taken")
	}
	if counts["sim"]+counts["hpc"]+counts["netif"]+counts["channels"]+counts["kern"] == 0 {
		t.Errorf("no samples in the simulator's layers: %v", counts)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v %v %v", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "iter_ms_p50", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "msgs_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100, 102, 98, 100, 101, 99}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		m              metricSpec
		parent, change []float64
		want           string
	}{
		{"same", lower, steady, shift(steady, 1.02), "same"},
		{"slower", lower, steady, shift(steady, 1.2), "WORSE"},
		{"faster", lower, steady, shift(steady, 0.8), "better"},
		{"lower throughput", higher, steady, shift(steady, 0.8), "WORSE"},
		{"noisy parent", lower, []float64{60, 80, 100, 120, 140, 100, 70, 130}, shift(steady, 1.2), "unresolved"},
		{"noisy parent, clear win", lower, []float64{60, 80, 100, 120, 140, 100, 70, 130}, shift(steady, 0.5), "better"},
	} {
		if _, got := verdict(tc.m, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestMain runs the tests on one host thread, as the benchmark runs its
// workloads.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}
