package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// idleRunners returns how many runners wait in the pool.
func idleRunners() int {
	runners.mu.Lock()
	defer runners.mu.Unlock()
	return len(runners.idle)
}

// TestRunnerPoolReusedAcrossKernels runs 100 fresh kernels of 50 procs
// each, all alive at once: the first kernel fills the pool with the
// runners its procs ended on, and every later kernel takes them back
// and returns them, so neither the pool nor the goroutine count grows
// after it.
func TestRunnerPoolReusedAcrossKernels(t *testing.T) {
	run := func() {
		k := NewKernel(1)
		for i := 0; i < 50; i++ {
			d := Duration(50-i) * Microsecond
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				p.Yield()
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	idle, goroutines := idleRunners(), runtime.NumGoroutine()
	if idle < 50 {
		t.Fatalf("%d idle runners after 50 procs ended, want at least 50", idle)
	}
	for i := 1; i < 100; i++ {
		run()
		if n := idleRunners(); n != idle {
			t.Fatalf("kernel %d: %d idle runners, %d after the first kernel", i, n, idle)
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Fatalf("kernel %d: %d goroutines, %d after the first kernel", i, n, goroutines)
		}
	}
}

// runnerRelay is a chain of procs alternating between two shards,
// beside a ticker proc on each. Each relay proc sleeps, yields, logs,
// and posts the spawn of its successor on the other shard, then ends;
// its shard publishes no front past it until it has ended, so the
// successor starts on the runner it ended on, taken from the pool by
// the other shard's goroutine. seen[sh] records the runners relay
// procs ran on, by shard.
func runnerRelay(s shardSim, logs [][]string, seen [][]*runner) {
	const hops, ticks = 40, 60
	var spawn func(sh, n int)
	spawn = func(sh, n int) {
		s.kernel(sh).Spawn(fmt.Sprintf("relay%d", n), func(p *Proc) {
			p.Sleep(Duration(10 + n%7))
			p.Yield()
			logs[sh] = append(logs[sh], fmt.Sprintf("%s@%v", p.Name(), p.Now()))
			seen[sh] = append(seen[sh], p.run)
			if n < hops {
				next := 1 - sh
				s.post(sh, next, p.Now().Add(1000), func() { spawn(next, n+1) })
			}
		})
	}
	s.kernel(0).At(0, func() { spawn(0, 0) })
	for sh := 0; sh < 2; sh++ {
		sh := sh
		s.kernel(sh).Spawn(fmt.Sprintf("ticker%d", sh), func(p *Proc) {
			for i := 0; i < ticks; i++ {
				p.Sleep(Duration(333 + 2*sh))
				logs[sh] = append(logs[sh], fmt.Sprintf("%s@%v", p.Name(), p.Now()))
			}
		})
	}
}

// TestGroupRunnersCrossShards: procs on both shards of a two-shard
// Group log what the serial run logs, and runners pass between the two
// shard goroutines through the pool.
func TestGroupRunnersCrossShards(t *testing.T) {
	sk := NewKernel(1)
	serial := make([][]string, 2)
	runnerRelay(serialSim{sk}, serial, make([][]*runner, 2))
	if err := sk.Run(); err != nil {
		t.Fatal(err)
	}

	g := newTestGroup(2)
	group := make([][]string, 2)
	seen := make([][]*runner, 2)
	runnerRelay(groupSim{g}, group, seen)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	for sh := range serial {
		if fmt.Sprint(group[sh]) != fmt.Sprint(serial[sh]) {
			t.Fatalf("shard %d diverged:\nserial %v\ngroup  %v", sh, serial[sh], group[sh])
		}
	}
	on0 := map[*runner]bool{}
	for _, r := range seen[0] {
		on0[r] = true
	}
	crossed := 0
	for _, r := range seen[1] {
		if on0[r] {
			crossed++
		}
	}
	if crossed == 0 {
		t.Fatal("no runner ran relay procs on both shards")
	}
}

// TestSpawnAllocOnlyProc is the allocation guard for starting procs:
// on a warm pool, spawning a proc and running it to completion (a
// sleep, a yield) allocates its Proc record and nothing else: no
// channel, goroutine or coroutine per proc.
func TestSpawnAllocOnlyProc(t *testing.T) {
	k := NewKernel(1)
	k.procs = make([]*Proc, 0, 4096) // the spawn log's growth is not the proc's
	body := func(p *Proc) {
		p.Sleep(Microsecond)
		p.Yield()
	}
	spawnRun := func() {
		k.Spawn("p", body)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		spawnRun()
	}
	if allocs := testing.AllocsPerRun(1000, spawnRun); allocs != 1 {
		t.Fatalf("spawn and run to completion allocates %v objects, want 1 (the Proc)", allocs)
	}
}
