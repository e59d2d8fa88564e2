// Package spice is the parallel circuit-simulation workload of paper
// §4.1: a distributed iterative solver for the large sparse linear
// systems at the heart of SPICE. The paper reports that the parallel
// SPICE implementation needed very low latency communications and got
// it from user-defined communications objects — 60 µs software
// latency for 64-byte messages, with direct hardware access and no
// low-level protocol.
//
// The substrate here is a resistor-grid (Laplacian-like) system
// solved by Jacobi iteration, row-striped across processors; each
// iteration exchanges strip-boundary values with the two neighboring
// processors. The same solve can run over VORX channels or over
// user-defined objects, which is exactly the comparison that made the
// SPICE group bypass the channel protocol.
package spice

import (
	"fmt"
	"math"
	"sort"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/udo"
)

// FlopCost is the 68882 time per floating point operation in the
// solver's inner loop.
const FlopCost = 6500 * sim.Nanosecond

// ValueBytes is the wire size of one unknown (32-bit float in 1988).
const ValueBytes = 4

// System is the sparse linear system A x = b for an n×n resistor
// grid: A is the grid Laplacian plus a conductance to ground, so it
// is strictly diagonally dominant and Jacobi converges.
type System struct {
	N    int // grid side; unknowns = N*N
	Diag float64
	B    []float64
}

// NewGrid builds the n×n grid system with unit off-diagonal
// conductances and a source vector derived deterministically from the
// node index.
func NewGrid(n int) *System {
	s := &System{N: n, Diag: 4.5, B: make([]float64, n*n)}
	for i := range s.B {
		s.B[i] = math.Sin(float64(i)) + 2
	}
	return s
}

// Unknowns returns the number of unknowns.
func (s *System) Unknowns() int { return s.N * s.N }

// neighbors iterates the off-diagonal entries of row (r,c); every
// entry has coefficient -1.
func (s *System) neighbors(r, c int, f func(j int)) {
	if r > 0 {
		f((r-1)*s.N + c)
	}
	if r < s.N-1 {
		f((r+1)*s.N + c)
	}
	if c > 0 {
		f(r*s.N + c - 1)
	}
	if c < s.N-1 {
		f(r*s.N + c + 1)
	}
}

// JacobiStep computes one Jacobi sweep sequentially: xNew from x.
func (s *System) JacobiStep(x, xNew []float64) {
	for r := 0; r < s.N; r++ {
		for c := 0; c < s.N; c++ {
			i := r*s.N + c
			sum := s.B[i]
			s.neighbors(r, c, func(j int) { sum += x[j] })
			xNew[i] = sum / s.Diag
		}
	}
}

// Residual returns the max-norm residual of A x = b.
func (s *System) Residual(x []float64) float64 {
	max := 0.0
	for r := 0; r < s.N; r++ {
		for c := 0; c < s.N; c++ {
			i := r*s.N + c
			ax := s.Diag * x[i]
			s.neighbors(r, c, func(j int) { ax -= x[j] })
			if d := math.Abs(ax - s.B[i]); d > max {
				max = d
			}
		}
	}
	return max
}

// SolveSequential runs iters Jacobi sweeps on one (virtual) CPU and
// returns the solution — the correctness reference.
func (s *System) SolveSequential(iters int) []float64 {
	x := make([]float64, s.Unknowns())
	xn := make([]float64, s.Unknowns())
	for it := 0; it < iters; it++ {
		s.JacobiStep(x, xn)
		x, xn = xn, x
	}
	return x
}

// Transport selects the communications mechanism for boundary
// exchange.
type Transport int

const (
	// Channels uses the standard VORX channel protocol.
	Channels Transport = iota
	// UDO uses interrupt-driven user-defined objects: direct
	// hardware access, no kernel protocol.
	UDO
)

func (tr Transport) String() string {
	if tr == Channels {
		return "channels"
	}
	return "udo"
}

// Result reports one distributed solve.
type Result struct {
	Elapsed  sim.Duration
	Residual float64
	// Messages is the total boundary-exchange messages sent.
	Messages int
}

// boundary is one strip-edge exchange message.
type boundary struct {
	from int
	iter int
	vals []float64
}

// Solve runs iters distributed Jacobi sweeps on P processors of the
// system (P must divide the grid side) and returns the measured result
// and the solution vector. Strips exchange their edge rows with both
// neighbors every iteration; messages are n values of 4 bytes — small
// and latency-sensitive, which is why the transport matters.
func Solve(sys *core.System, grid *System, procs, iters int, tr Transport) (*Result, []float64, error) {
	n := grid.N
	if procs <= 0 || n%procs != 0 {
		return nil, nil, fmt.Errorf("spice: %d processors must divide grid side %d", procs, n)
	}
	if len(sys.Nodes()) < procs {
		return nil, nil, fmt.Errorf("spice: need %d nodes, have %d", procs, len(sys.Nodes()))
	}
	rows := n / procs
	x := make([]float64, grid.Unknowns())
	res := &Result{}

	send := make([]func(sp *kern.Subprocess, to int, b boundary), procs)
	recvFrom := make([]func(sp *kern.Subprocess, from, iter int) []float64, procs)

	switch tr {
	case UDO:
		// One receiving object per processor; senders use remote
		// handles. Out-of-order iterations (a fast neighbor can be
		// one sweep ahead) are reordered in a local pending buffer.
		rx := make([]*udo.Object, procs)
		pending := make([]map[[2]int][]float64, procs)
		for p := 0; p < procs; p++ {
			rx[p] = udo.New(sys.Node(p).IF, fmt.Sprintf("spice.rx.%d", p), false)
			pending[p] = map[[2]int][]float64{}
		}
		for p := 0; p < procs; p++ {
			p := p
			remotes := map[int]*udo.Remote{}
			send[p] = func(sp *kern.Subprocess, to int, b boundary) {
				r := remotes[to]
				if r == nil {
					r = udo.NewRemote(sys.Node(p).IF, fmt.Sprintf("spice.rx.%d", to))
					remotes[to] = r
				}
				if err := r.Send(sp, sys.Node(to).EP, len(b.vals)*ValueBytes, b); err != nil {
					panic(err)
				}
				res.Messages++
			}
			recvFrom[p] = func(sp *kern.Subprocess, from, iter int) []float64 {
				key := [2]int{from, iter}
				for {
					if vals, ok := pending[p][key]; ok {
						delete(pending[p], key)
						return vals
					}
					m := rx[p].Recv(sp)
					b := m.Payload.(boundary)
					pending[p][[2]int{b.from, b.iter}] = b.vals
				}
			}
		}
	case Channels:
		// One channel per directed neighbor pair, opened in globally
		// sorted name order (deadlock-free rendezvous). Channels
		// preserve per-neighbor order, and the stop-and-wait flow
		// control keeps neighbors within one sweep of each other, so
		// reads can be taken in order with an iteration check.
		type key struct{ from, to int }
		chans := make([]map[key]*channels.Channel, procs)
		openAll := func(sp *kern.Subprocess, p int) {
			if chans[p] != nil {
				return
			}
			chans[p] = map[key]*channels.Channel{}
			var names []string
			byName := map[string]key{}
			add := func(a, b int) {
				nm := fmt.Sprintf("spice.ch.%03d.%03d", a, b)
				names = append(names, nm)
				byName[nm] = key{a, b}
			}
			if p > 0 {
				add(p, p-1)
				add(p-1, p)
			}
			if p < procs-1 {
				add(p, p+1)
				add(p+1, p)
			}
			sort.Strings(names)
			for _, nm := range names {
				chans[p][byName[nm]] = sys.Node(p).Chans.Open(sp, nm, objmgr.OpenAny)
			}
		}
		pending := make([]map[[2]int][]float64, procs)
		for p := 0; p < procs; p++ {
			pending[p] = map[[2]int][]float64{}
		}
		for p := 0; p < procs; p++ {
			p := p
			send[p] = func(sp *kern.Subprocess, to int, b boundary) {
				openAll(sp, p)
				if err := chans[p][key{p, to}].Write(sp, len(b.vals)*ValueBytes, b); err != nil {
					panic(err)
				}
				res.Messages++
			}
			recvFrom[p] = func(sp *kern.Subprocess, from, iter int) []float64 {
				openAll(sp, p)
				k := [2]int{from, iter}
				for {
					if vals, ok := pending[p][k]; ok {
						delete(pending[p], k)
						return vals
					}
					m, ok := chans[p][key{from, p}].Read(sp)
					if !ok {
						panic("spice: channel closed mid-solve")
					}
					b := m.Payload.(boundary)
					pending[p][[2]int{b.from, b.iter}] = b.vals
				}
			}
		}
	}

	start := sys.K.Now()
	var finish sim.Time
	for p := 0; p < procs; p++ {
		p := p
		sys.Spawn(sys.Node(p), fmt.Sprintf("spice%d", p), 0, func(sp *kern.Subprocess) {
			r0 := p * rows
			// Local strip with one halo row on each side: local rows
			// 1..rows hold global rows r0..r0+rows-1.
			loc := make([]float64, (rows+2)*n)
			nxt := make([]float64, (rows+2)*n)
			lrow := func(buf []float64, lr int) []float64 { return buf[lr*n : (lr+1)*n] }
			for it := 0; it < iters; it++ {
				// Send my edge rows to the neighbors that need them.
				if p > 0 {
					send[p](sp, p-1, boundary{from: p, iter: it, vals: append([]float64(nil), lrow(loc, 1)...)})
				}
				if p < procs-1 {
					send[p](sp, p+1, boundary{from: p, iter: it, vals: append([]float64(nil), lrow(loc, rows)...)})
				}
				// Receive the neighbors' edge rows into my halos.
				if p > 0 {
					copy(lrow(loc, 0), recvFrom[p](sp, p-1, it))
				}
				if p < procs-1 {
					copy(lrow(loc, rows+1), recvFrom[p](sp, p+1, it))
				}
				// Jacobi sweep over my strip: ~5 flops per unknown.
				sp.Compute(sim.Duration(rows*n*5) * FlopCost)
				for lr := 1; lr <= rows; lr++ {
					gr := r0 + lr - 1
					for c := 0; c < n; c++ {
						sum := grid.B[gr*n+c]
						if gr > 0 {
							sum += loc[(lr-1)*n+c]
						}
						if gr < n-1 {
							sum += loc[(lr+1)*n+c]
						}
						if c > 0 {
							sum += loc[lr*n+c-1]
						}
						if c < n-1 {
							sum += loc[lr*n+c+1]
						}
						nxt[lr*n+c] = sum / grid.Diag
					}
				}
				copy(loc[n:(rows+1)*n], nxt[n:(rows+1)*n])
			}
			// Publish my strip into the assembled solution.
			copy(x[r0*n:(r0+rows)*n], loc[n:(rows+1)*n])
			if sp.Now() > finish {
				finish = sp.Now()
			}
		})
	}
	if err := sys.Run(); err != nil {
		return nil, nil, fmt.Errorf("spice: %w", err)
	}
	res.Elapsed = finish.Sub(start)
	res.Residual = grid.Residual(x)
	return res, x, nil
}
