package main

import (
	"fmt"
	"math/rand"

	"hpcvorx/internal/core"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// Workload names, in the order the benchmark lists them.
const (
	wlFanin  = "fanin_classic"
	wlStream = "stream_pipelined"
	wlPairs  = "pairs_sharded"
)

var workloads = []string{wlFanin, wlStream, wlPairs}

// writer is one simulated writer: a channel from node src to node dst
// carrying one message per entry of sizes. The first write starts at
// start; each later write is issued pace after the previous one
// returned (0: back to back). Every writer is closed loop: it issues a
// write only after the previous one returned.
type writer struct {
	name     string // channel name
	src, dst int    // node indices
	start    sim.Duration
	pace     sim.Duration
	// readerDelay, when > 0, holds the reader's Open until start plus
	// this delay.
	readerDelay sim.Duration
	sizes       []int
	payloads    []any // msgTag per message, boxed once per plan
}

// msgTag travels as each message's payload so the reader can check
// what arrived.
type msgTag struct{ w, seq int32 }

// plan is one workload's generated input: the machine to build and
// the writers to spawn on it. Everything seeded lives here; the
// program only sees the resulting subprocesses.
type plan struct {
	name    string
	cfg     core.Config
	sharded bool
	writers []writer
}

// messages is the number of application messages one iteration sends.
func (p *plan) messages() int {
	n := 0
	for _, w := range p.writers {
		n += len(w.sizes)
	}
	return n
}

// readers returns, per destination node, the writers it reads from,
// in writer order.
func (p *plan) readers() (dsts []int, from map[int][]int) {
	from = map[int][]int{}
	for i, w := range p.writers {
		if _, ok := from[w.dst]; !ok {
			dsts = append(dsts, w.dst)
		}
		from[w.dst] = append(from[w.dst], i)
	}
	return dsts, from
}

func between(r *rand.Rand, lo, hi int) int { return lo + r.Intn(hi-lo+1) }

func micros(r *rand.Rand, lo, hi int) sim.Duration {
	return sim.Duration(between(r, lo, hi)) * sim.Microsecond
}

func nanos(r *rand.Rand, lo, hi int) sim.Duration { return sim.Duration(between(r, lo, hi)) }

// balancedCounts draws n message counts between lo and hi whose sum is
// always n*(lo+hi)/2: counts come in pairs c, lo+hi-c (an odd one out
// gets the mean), shuffled. Every seed then sends the same number of
// messages, so per-iteration figures compare across seeds.
func balancedCounts(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i := 0; i+1 < n; i += 2 {
		c := between(r, lo, hi)
		out[i], out[i+1] = c, lo+hi-c
	}
	if n%2 == 1 {
		out[n-1] = (lo + hi) / 2
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// makePlan generates the named workload from seed.
func makePlan(name string, seed int64) (*plan, error) {
	r := rand.New(rand.NewSource(seed))
	var p *plan
	switch name {
	case wlFanin:
		// 64 nodes in 16 clusters of 4; nodes 1..63 each write to node 0
		// over their own channel with the classic stop-and-wait stack.
		p = &plan{name: name, cfg: core.Config{Nodes: 64, Seed: seed}}
		counts := balancedCounts(r, 63, 30, 50)
		for src := 1; src < 64; src++ {
			w := writer{src: src, dst: 0, start: micros(r, 0, 200)}
			for n := counts[src-1]; n > 0; n-- {
				w.sizes = append(w.sizes, between(r, 64, 1024))
			}
			p.writers = append(p.writers, w)
		}
	case wlStream:
		// Two nodes, one channel, 4–16 KB writes on the pipelined stack.
		p = &plan{name: name, cfg: core.Config{Nodes: 2, Seed: seed, Comm: core.Pipelined()}}
		w := writer{src: 0, dst: 1, start: micros(r, 0, 50)}
		for n := 0; n < 1000; n++ {
			w.sizes = append(w.sizes, between(r, 4096, 16384))
		}
		p.writers = append(p.writers, w)
	case wlPairs:
		// 1 host + 255 nodes (64 clusters) at 2 shards; each pair has its
		// writer and reader on opposite shards.
		p = &plan{name: name, sharded: true, cfg: core.Config{Hosts: 1, Nodes: 255, Seed: seed, Shards: 2}}
		tp, err := topo.IncompleteHypercube(64, 4)
		if err != nil {
			return nil, err
		}
		part := topo.PartitionClusters(tp, 2)
		var side [2][]int
		for node := 0; node < 255; node++ {
			s := part.OfEndpoint(tp, topo.EndpointID(node+1)) // host0 is endpoint 0
			side[s] = append(side[s], node)
		}
		r.Shuffle(len(side[0]), func(i, j int) { side[0][i], side[0][j] = side[0][j], side[0][i] })
		r.Shuffle(len(side[1]), func(i, j int) { side[1][i], side[1][j] = side[1][j], side[1][i] })
		const pairs = 120
		counts := balancedCounts(r, pairs, 3, 5)
		slots := r.Perm(pairs)
		for i := 0; i < pairs; i++ {
			a, b := side[0][i], side[1][i]
			if i%2 == 1 {
				a, b = b, a
			}
			// Starts are staggered 17 µs apart in a seeded order, plus a
			// seeded sub-17 µs offset in nanoseconds: events from two shards
			// that land at one instant merge in shard order rather than
			// serial order, so simultaneous opens would break the digest.
			w := writer{
				src: a, dst: b,
				start:       sim.Duration(17*slots[i])*sim.Microsecond + nanos(r, 1, 16999),
				readerDelay: 8 * sim.Microsecond,
				pace:        nanos(r, 150_000, 350_000),
			}
			for n := counts[i]; n > 0; n-- {
				w.sizes = append(w.sizes, between(r, 128, 384))
			}
			p.writers = append(p.writers, w)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloads)
	}
	for i := range p.writers {
		w := &p.writers[i]
		w.name = fmt.Sprintf("pb.%d", i)
		w.payloads = make([]any, len(w.sizes))
		for s := range w.sizes {
			w.payloads[s] = msgTag{w: int32(i), seq: int32(s)}
		}
	}
	return p, nil
}
