package fft

import (
	"fmt"
	"sort"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/multicast"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
)

// ComplexBytes is the wire size of one complex number (two 32-bit
// floats on the 68882).
const ComplexBytes = 8

// ButterflyCost is the 68020+68882 execution time of one complex
// butterfly (~10 floating point operations).
const ButterflyCost = 65 * sim.Microsecond

// fftCost returns the modeled execution time of an n-point 1DFFT.
func fftCost(n int) sim.Duration {
	return sim.Duration(Butterflies(n)) * ButterflyCost
}

// Strategy selects the redistribution method between the row and
// column phases.
type Strategy int

const (
	// Multicast: each processor multicasts its entire row block to
	// every other processor.
	Multicast Strategy = iota
	// Scatter: each processor sends each other processor only the
	// block it needs.
	Scatter
)

func (s Strategy) String() string {
	if s == Multicast {
		return "multicast"
	}
	return "scatter"
}

// Result reports a distributed 2DFFT run.
type Result struct {
	Elapsed sim.Duration
	// NumbersRead is the count of complex numbers each processor's
	// kernel read off the wire during redistribution (the §4.2
	// metric: 65536 with multicast vs 256 with scatter for n=256,
	// P=256).
	NumbersRead []int64
	// IdealCompute is the time two 1DFFT phases would take with
	// zero-cost communications.
	IdealCompute sim.Duration
}

// blockMsg carries rows r0..r1 restricted to columns c0..c1.
type blockMsg struct {
	rows, cols [2]int
	data       []complex128 // row-major within the block
}

// Run2DFFT executes the distributed 2DFFT of an n×n input on P
// processing nodes of the system (P must divide n) and returns the
// measured result plus the computed transform (assembled for
// verification).
func Run2DFFT(sys *core.System, in *Matrix, procs int, strat Strategy) (*Result, *Matrix, error) {
	n := in.N
	if procs <= 0 || n%procs != 0 {
		return nil, nil, fmt.Errorf("fft: %d processors must divide n=%d", procs, n)
	}
	if len(sys.Nodes()) < procs {
		return nil, nil, fmt.Errorf("fft: system has %d nodes, need %d", len(sys.Nodes()), procs)
	}
	rows := n / procs
	work := in.Clone()
	out := NewMatrix(n)
	res := &Result{
		NumbersRead:  make([]int64, procs),
		IdealCompute: sim.Duration(2*rows) * fftCost(n),
	}

	start := sys.K.Now()
	var finished sim.Time

	// Per-processor column buffers: colBuf[p] accumulates the rows of
	// the columns processor p owns.
	type recvFn func(sp *kern.Subprocess, p int) []blockMsg
	var setupErr error

	runProc := func(p int, send func(sp *kern.Subprocess, p int, blocks []blockMsg), recv recvFn) {
		node := sys.Node(p)
		sys.Spawn(node, fmt.Sprintf("fft%d", p), 0, func(sp *kern.Subprocess) {
			// Phase 1: row FFTs on my block.
			r0 := p * rows
			for r := r0; r < r0+rows; r++ {
				sp.Compute(fftCost(n))
				if err := FFT(work.Row(r)); err != nil {
					setupErr = err
					return
				}
			}
			// Phase 2: redistribute. Build per-destination blocks.
			var blocks []blockMsg
			for q := 0; q < procs; q++ {
				c0 := q * rows
				blk := blockMsg{rows: [2]int{r0, r0 + rows}, cols: [2]int{c0, c0 + rows}}
				for r := r0; r < r0+rows; r++ {
					blk.data = append(blk.data, work.Row(r)[c0:c0+rows]...)
				}
				blocks = append(blocks, blk)
			}
			send(sp, p, blocks)
			incoming := recv(sp, p)
			// Phase 3: column FFTs on my columns.
			c0 := p * rows
			colBlock := NewMatrix(n) // reuse as n×rows scratch (rows of my columns)
			// My own block.
			for r := r0; r < r0+rows; r++ {
				for c := c0; c < c0+rows; c++ {
					colBlock.Set(r, c-c0, work.At(r, c))
				}
			}
			for _, blk := range incoming {
				i := 0
				for r := blk.rows[0]; r < blk.rows[1]; r++ {
					for c := blk.cols[0]; c < blk.cols[1]; c++ {
						if c >= c0 && c < c0+rows {
							colBlock.Set(r, c-c0, blk.data[i])
						}
						i++
					}
				}
			}
			for c := 0; c < rows; c++ {
				sp.Compute(fftCost(n))
				col := make([]complex128, n)
				for r := 0; r < n; r++ {
					col[r] = colBlock.At(r, c)
				}
				if err := FFT(col); err != nil {
					setupErr = err
					return
				}
				out.SetCol(c0+c, col)
			}
			if sp.Now() > finished {
				finished = sp.Now()
			}
		})
	}

	switch strat {
	case Multicast:
		senders := make([]*multicast.Sender, procs)
		recvs := make([][]*multicast.Receiver, procs) // recvs[p][q]: p's receiver for group q
		for p := 0; p < procs; p++ {
			recvs[p] = make([]*multicast.Receiver, procs)
			senders[p] = multicast.NewSender(sys.Node(p).IF, sys.Mgr, fmt.Sprintf("fftmc.%d", p))
		}
		send := func(sp *kern.Subprocess, p int, blocks []blockMsg) {
			// Group setup in a canonical global order (by group id),
			// so the blocking rendezvous cannot cycle: when group g
			// is up, everyone's next operation concerns group g+1.
			for g := 0; g < procs; g++ {
				if g == p {
					for q := 1; q < procs; q++ {
						senders[p].Accept(sp)
					}
				} else {
					recvs[p][g] = multicast.Join(sys.Node(p).IF, sys.Mgr, sp, fmt.Sprintf("fftmc.%d", g))
				}
			}
			// The whole row block goes to everyone.
			all := blockMsg{rows: blocks[0].rows, cols: [2]int{0, n}}
			r0 := blocks[0].rows[0]
			for r := r0; r < r0+rows; r++ {
				all.data = append(all.data, work.Row(r)...)
			}
			if err := senders[p].Write(sp, len(all.data)*ComplexBytes, all); err != nil {
				setupErr = err
			}
		}
		recv := func(sp *kern.Subprocess, p int) []blockMsg {
			var in []blockMsg
			for q := 0; q < procs; q++ {
				if q == p {
					continue
				}
				m := recvs[p][q].Read(sp)
				in = append(in, m.Payload.(blockMsg))
				res.NumbersRead[p] += int64(m.Size / ComplexBytes)
			}
			return in
		}
		for p := 0; p < procs; p++ {
			runProc(p, send, recv)
		}

	case Scatter:
		chans := make([]map[string]*channelRef, procs)
		send := func(sp *kern.Subprocess, p int, blocks []blockMsg) {
			// Open every channel this processor touches, in globally
			// sorted name order — the standard resource-ordering
			// argument makes the blocking rendezvous deadlock-free.
			names := make([]string, 0, 2*(procs-1))
			for q := 0; q < procs; q++ {
				if q != p {
					names = append(names, pairName(p, q), pairName(q, p))
				}
			}
			sortStrings(names)
			chans[p] = map[string]*channelRef{}
			for _, nm := range names {
				chans[p][nm] = &channelRef{ch: sys.Node(p).Chans.Open(sp, nm, objmgr.OpenAny)}
			}
			for q := 0; q < procs; q++ {
				if q == p {
					continue
				}
				blk := blocks[q]
				if err := chans[p][pairName(p, q)].ch.Write(sp, len(blk.data)*ComplexBytes, blk); err != nil {
					setupErr = err
				}
			}
		}
		recv := func(sp *kern.Subprocess, p int) []blockMsg {
			var in []blockMsg
			for q := 0; q < procs; q++ {
				if q == p {
					continue
				}
				m, ok := chans[p][pairName(q, p)].ch.Read(sp)
				if !ok {
					setupErr = fmt.Errorf("fft: scatter read failed")
					return in
				}
				in = append(in, m.Payload.(blockMsg))
				res.NumbersRead[p] += int64(m.Size / ComplexBytes)
			}
			return in
		}
		for p := 0; p < procs; p++ {
			runProc(p, send, recv)
		}
	}

	if err := sys.Run(); err != nil {
		return nil, nil, fmt.Errorf("fft: %w", err)
	}
	if setupErr != nil {
		return nil, nil, setupErr
	}
	res.Elapsed = finished.Sub(start)
	return res, out, nil
}

// channelRef wraps a channel so the per-processor maps can be built
// before the writes begin.
type channelRef struct{ ch *channels.Channel }

// pairName is the channel name for the sender→receiver block
// transfer; %03d keeps lexicographic order equal to numeric order.
func pairName(from, to int) string { return fmt.Sprintf("fftsc.%03d.%03d", from, to) }

func sortStrings(s []string) { sort.Strings(s) }
