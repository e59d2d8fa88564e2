package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/core"
	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/trace"
)

// machine is what core.System and core.Sharded have in common.
type machine interface {
	Node(i int) *core.Machine
	Spawn(m *core.Machine, name string, prio int, body func(sp *kern.Subprocess)) *kern.Subprocess
	Run() error
}

// delivery is one message as its reader saw it.
type delivery struct {
	seq, size int32
	at        sim.Time
}

// recorder holds what one iteration's subprocesses observed. Each slot
// is written by subprocesses of a single shard and read only after Run
// has returned.
type recorder struct {
	got      [][]delivery     // per writer, in arrival order
	writeErr []int            // per writer: writes that returned an error or were never issued
	writeLat [][]sim.Duration // per writer: virtual time inside each Write
	openLat  []sim.Duration   // writer w's Open at w, its reader's at len(writers)+w
}

func newRecorder(p *plan) *recorder {
	n := len(p.writers)
	rec := &recorder{
		got:      make([][]delivery, n),
		writeErr: make([]int, n),
		writeLat: make([][]sim.Duration, n),
		openLat:  make([]sim.Duration, 2*n),
	}
	for i, w := range p.writers {
		rec.got[i] = make([]delivery, 0, len(w.sizes))
		rec.writeLat[i] = make([]sim.Duration, 0, len(w.sizes))
	}
	return rec
}

// iteration is one fresh machine running the workload to quiescence.
type iteration struct {
	m   machine
	sys *core.System  // set when built serial
	sh  *core.Sharded // set when built sharded
	rec *recorder

	build, setup, run time.Duration
	runErr            error
}

// setupIteration builds the plan's machine through core's public
// constructors and spawns the workload on it. serial builds a sharded
// plan on the serial kernel instead.
func setupIteration(p *plan, serial bool) (*iteration, error) {
	it := &iteration{}
	t0 := time.Now()
	if p.sharded && !serial {
		sh, err := core.BuildSharded(p.cfg)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", p.name, err)
		}
		it.sh, it.m = sh, sh
	} else {
		sys, err := core.Build(p.cfg)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", p.name, err)
		}
		it.sys, it.m = sys, sys
	}
	it.build = time.Since(t0)
	it.rec = newRecorder(p)
	spawn(p, it.m, it.rec)
	it.setup = time.Since(t0)
	return it, nil
}

// execute runs the machine to quiescence.
func (it *iteration) execute() {
	t0 := time.Now()
	it.runErr = it.m.Run()
	it.run = time.Since(t0)
}

// spawn starts every writer and one reader per destination node.
func spawn(p *plan, m machine, rec *recorder) {
	nw := len(p.writers)
	for i := range p.writers {
		w := &p.writers[i]
		src := m.Node(w.src)
		m.Spawn(src, "pb-writer", 0, func(sp *kern.Subprocess) {
			if w.start > 0 {
				sp.SleepFor(w.start)
			}
			t := sp.Now()
			ch := src.Chans.Open(sp, w.name, objmgr.OpenAny)
			rec.openLat[i] = sp.Now().Sub(t)
			for s, size := range w.sizes {
				if s > 0 && w.pace > 0 {
					sp.SleepFor(w.pace)
				}
				t := sp.Now()
				if err := ch.Write(sp, size, w.payloads[s]); err != nil {
					rec.writeErr[i] += len(w.sizes) - s
					return
				}
				rec.writeLat[i] = append(rec.writeLat[i], sp.Now().Sub(t))
			}
		})
	}
	dsts, from := p.readers()
	for _, dst := range dsts {
		ws := from[dst]
		node := m.Node(dst)
		m.Spawn(node, "pb-reader", 0, func(sp *kern.Subprocess) {
			chs := make([]*channels.Channel, len(ws))
			for k, wi := range ws {
				if w := &p.writers[wi]; w.readerDelay > 0 {
					sp.SleepFor(w.start + w.readerDelay - sim.Duration(sp.Now()))
				}
				t := sp.Now()
				chs[k] = node.Chans.Open(sp, p.writers[wi].name, objmgr.OpenAny)
				rec.openLat[nw+wi] = sp.Now().Sub(t)
			}
			// Round-robin over the writers that still owe messages: the
			// reader blocks on one channel while the others queue up in
			// side buffers, which is where a shared sink contends.
			reads := make([]int, len(ws))
			for left := true; left; {
				left = false
				for k, wi := range ws {
					if reads[k] == len(p.writers[wi].sizes) {
						continue
					}
					msg, ok := chs[k].Read(sp)
					if !ok {
						return
					}
					reads[k]++
					left = true
					tag, _ := msg.Payload.(msgTag)
					rec.got[wi] = append(rec.got[wi], delivery{seq: tag.seq, size: int32(msg.Size), at: sp.Now()})
				}
			}
		})
	}
}

// check compares what the readers saw against the plan and returns how
// many messages failed. A message is good when it arrived once, with
// its size, after every good message written before it; every message
// that is not good fails, and so does every delivery that is not (a
// duplicate, or one that overtook a predecessor). A write that returned
// an error fails its message. The result is at most the number of
// messages.
func check(p *plan, rec *recorder) int {
	failed := 0
	for i, w := range p.writers {
		n := len(w.sizes)
		good, last := 0, -1
		seen := make([]bool, n)
		for _, d := range rec.got[i] {
			s := int(d.seq)
			if s > last && s < n && !seen[s] && int(d.size) == w.sizes[s] {
				seen[s], last = true, s
				good++
			}
		}
		bad := max(n-good, rec.writeErr[i]) + len(rec.got[i]) - good
		failed += min(bad, n)
	}
	return failed
}

// digest fingerprints the deliveries: who got which message, and at
// what virtual instant. Equal digests mean equal simulations as far as
// the application can tell.
func digest(rec *recorder) uint64 {
	h := fnv.New64a()
	var b [20]byte
	for i, got := range rec.got {
		for _, d := range got {
			binary.LittleEndian.PutUint32(b[0:], uint32(i))
			binary.LittleEndian.PutUint32(b[4:], uint32(d.seq))
			binary.LittleEndian.PutUint32(b[8:], uint32(d.size))
			binary.LittleEndian.PutUint64(b[12:], uint64(d.at))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// events is the number of simulation events the iteration scheduled.
func (it *iteration) events() uint64 {
	if it.sh != nil {
		return it.sh.Group.Scheduled()
	}
	return it.sys.K.Scheduled()
}

// makespan is the virtual time at which the last shard went quiet.
func (it *iteration) makespan() sim.Time {
	if it.sh == nil {
		return it.sys.K.Now()
	}
	var t sim.Time
	for _, s := range it.sh.Sys {
		if n := s.K.Now(); n > t {
			t = n
		}
	}
	return t
}

// fabric sums interconnect counters over every shard.
func (it *iteration) fabric() hpc.Stats {
	if it.sh != nil {
		return it.sh.FabricStats()
	}
	return it.sys.IC.Stats()
}

// opens returns the opens each object manager handled, over all shards.
func (it *iteration) opens() map[int]int {
	out := map[int]int{}
	systems := []*core.System{it.sys}
	if it.sh != nil {
		systems = it.sh.Sys
	}
	for _, s := range systems {
		for _, ep := range s.Mgr.Managers() {
			out[int(ep)] += s.Mgr.Processed(ep)
		}
	}
	return out
}

// tracer returns the serial system's tracer (sharded builds keep
// theirs disabled).
func (it *iteration) tracer() *trace.Tracer {
	if it.sys == nil {
		return nil
	}
	return it.sys.Trace
}
