// Package stub implements the VORX execution environment (paper
// §3.3). Each process running on a processing node has a stub process
// on a host workstation: the stub downloads the program and then
// provides the UNIX environment — every system call the node process
// issues is forwarded over a channel to its stub, executed on the
// host, and the result passed back.
//
// Two arrangements are modeled, with the trade-offs the paper
// describes:
//
//   - Per-process stubs: the host forks one stub per process, each
//     independently downloading a copy of the program. Perfect
//     environment replication, but slow to start: ~12 s for 70
//     processes, dominated by work centralized on the host.
//   - Shared stub + tree download: one stub downloads to one node,
//     which copies the text to two other nodes as it is received, and
//     so on — ~2 s for 70 processes. The costs: a blocking system
//     call from any process stalls the shared stub for all of them,
//     and the SunOS 32-descriptor limit is shared by every process of
//     the application.
package stub

import (
	"fmt"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
)

// Image is the program to download.
type Image struct {
	// Bytes is the program text+data size. The default (see
	// DefaultImage) is calibrated so that 70 per-process downloads
	// take ≈12 s, as the paper reports.
	Bytes int
}

// DefaultImage is the calibrated program image.
func DefaultImage() Image { return Image{Bytes: 368 * 1024} }

// ChunkBytes is the tree-download forwarding unit.
const ChunkBytes = 1024

// ProcessInit is the node-side cost to initialize a downloaded
// process before it reports ready.
const ProcessInit = 5 * sim.Millisecond

// Mode selects the stub arrangement.
type Mode int

const (
	// PerProcess forks one stub per node process.
	PerProcess Mode = iota
	// SharedTree uses one stub and the fan-out-2 tree download.
	SharedTree
)

func (m Mode) String() string {
	if m == PerProcess {
		return "per-process"
	}
	return "shared-tree"
}

// App is a launched application.
type App struct {
	uid   int
	Procs []*Proc
	Stubs []*Stub

	// StartedAt is when the last process reported running.
	StartedAt sim.Time
	started   int
	onReady   func()
}

// Ready reports whether every process has started.
func (a *App) Ready() bool { return a.started == len(a.Procs) }

func (a *App) processStarted(now sim.Time) {
	a.started++
	if a.started == len(a.Procs) {
		a.StartedAt = now
		if a.onReady != nil {
			a.onReady()
		}
	}
}

// Stub is a host-side stub process.
type Stub struct {
	host   *core.Machine
	fds    map[int]string
	nextFD int
	// Syscalls counts forwarded calls executed by this stub.
	Syscalls int
}

// Proc is a node-side application process handle.
type Proc struct {
	node    *core.Machine
	id      int
	sc      *channels.Channel // syscall channel to the stub
	started bool
}

// Node returns the machine the process runs on.
func (p *Proc) Node() *core.Machine { return p.node }

// syscall wire messages
type scReq struct {
	kind string // "open", "write", "block", ...
	arg  string
	dur  sim.Duration // host execution time beyond the base cost
}

type scRep struct {
	fd  int
	err string
}

type startedMsg struct{ proc int }

const (
	reqBytes = 96
	repBytes = 64
)

// Launch downloads img onto the given nodes from host and starts one
// process per node. It spawns everything needed and returns the App;
// drive the simulation (sys.Run or RunFor) to completion, after which
// App.StartedAt holds the makespan. onReady (may be nil) fires inside
// the simulation when the last process starts.
func Launch(sys *core.System, host *core.Machine, nodes []*core.Machine, img Image, mode Mode, onReady func()) *App {
	app := &App{uid: sys.NextUID("stub"), onReady: onReady}
	for i, n := range nodes {
		app.Procs = append(app.Procs, &Proc{node: n, id: i})
	}
	if mode == PerProcess {
		launchPerProcess(sys, host, app, img)
	} else {
		launchTree(sys, host, app, img, 2)
	}
	return app
}

// LaunchTree is Launch in SharedTree mode with a configurable fan-out
// (the paper's tree copies to two other processors; the ablation
// benchmark varies this).
func LaunchTree(sys *core.System, host *core.Machine, nodes []*core.Machine, img Image, fanout int, onReady func()) *App {
	if fanout < 1 {
		fanout = 1
	}
	app := &App{uid: sys.NextUID("stub"), onReady: onReady}
	for i, n := range nodes {
		app.Procs = append(app.Procs, &Proc{node: n, id: i})
	}
	launchTree(sys, host, app, img, fanout)
	return app
}

// launchPerProcess: the host shell forks one stub per process; each
// stub opens a channel to its process's loader and downloads a full
// copy of the image, then serves system calls on the same channel.
func launchPerProcess(sys *core.System, host *core.Machine, app *App, img Image) {
	sys.Spawn(host, "shell", 0, func(sp *kern.Subprocess) {
		for i := range app.Procs {
			i := i
			sp.Compute(sys.Costs.HostFork) // fork(2) the stub
			st := &Stub{host: host, fds: map[int]string{}}
			app.Stubs = append(app.Stubs, st)
			sys.Spawn(host, fmt.Sprintf("stub%d", i), 0, func(ssp *kern.Subprocess) {
				ssp.Proc().SetDaemon(true)
				ch := host.Chans.Open(ssp, scName(app, i), objmgr.Serve)
				if err := ch.Write(ssp, img.Bytes, "text"); err != nil {
					panic(err)
				}
				// Wait for the process to report running, then serve
				// system calls forever.
				if m, ok := ch.Read(ssp); !ok {
					return
				} else if _, isStart := m.Payload.(startedMsg); !isStart {
					panic("stub: expected start message")
				}
				app.processStarted(ssp.Now())
				st.serve(ssp, ch)
			})
		}
	})
	for i := range app.Procs {
		i := i
		p := app.Procs[i]
		sys.Spawn(p.node, fmt.Sprintf("loader%d", i), 0, func(sp *kern.Subprocess) {
			ch := p.node.Chans.Open(sp, scName(app, i), objmgr.Connect)
			if _, ok := ch.Read(sp); !ok { // the program image
				return
			}
			sp.Compute(ProcessInit)
			p.sc = ch
			p.started = true
			ch.Write(sp, 32, startedMsg{proc: i})
		})
	}
}

// launchTree: one stub downloads to process 0; each process copies the
// text to its `fanout` tree children as it is received.
func launchTree(sys *core.System, host *core.Machine, app *App, img Image, fanout int) {
	chunks := (img.Bytes + ChunkBytes - 1) / ChunkBytes
	sys.Spawn(host, "shell", 0, func(sp *kern.Subprocess) {
		sp.Compute(sys.Costs.HostFork) // one fork only
		st := &Stub{host: host, fds: map[int]string{}}
		app.Stubs = append(app.Stubs, st)
		sys.Spawn(host, "stub", 0, func(ssp *kern.Subprocess) {
			ssp.Proc().SetDaemon(true)
			dl := host.Chans.Open(ssp, treeName(app, 0), objmgr.Serve)
			for c := 0; c < chunks; c++ {
				n := ChunkBytes
				if rem := img.Bytes - c*ChunkBytes; rem < n {
					n = rem
				}
				if err := dl.Write(ssp, n, "text"); err != nil {
					panic(err)
				}
			}
			// Collect per-process syscall channels and start notices,
			// then serve everything through one multiplexed loop.
			scs := make([]*channels.Channel, len(app.Procs))
			for i := range app.Procs {
				scs[i] = host.Chans.Open(ssp, scName(app, i), objmgr.Serve)
			}
			for range app.Procs {
				_, m, ok := channels.MuxRead(ssp, scs...)
				if !ok {
					return
				}
				sm := m.Payload.(startedMsg)
				app.Procs[sm.proc].started = true
				app.processStarted(ssp.Now())
			}
			st.serveMux(ssp, scs)
		})
	})
	n := len(app.Procs)
	for i := 0; i < n; i++ {
		i := i
		p := app.Procs[i]
		sys.Spawn(p.node, fmt.Sprintf("loader%d", i), 0, func(sp *kern.Subprocess) {
			// Order matters for rendezvous: connect to the parent
			// first, then serve the children.
			parent := p.node.Chans.Open(sp, treeName(app, i), objmgr.Connect)
			var kids []*channels.Channel
			for f := 1; f <= fanout; f++ {
				if c := fanout*i + f; c < n {
					kids = append(kids, p.node.Chans.Open(sp, treeName(app, c), objmgr.Serve))
				}
			}
			got := 0
			for got < chunks {
				m, ok := parent.Read(sp)
				if !ok {
					return
				}
				got++
				// Copy to both children as the text is received.
				for _, kc := range kids {
					if err := kc.Write(sp, m.Size, m.Payload); err != nil {
						panic(err)
					}
				}
			}
			sp.Compute(ProcessInit)
			sc := p.node.Chans.Open(sp, scName(app, i), objmgr.Connect)
			p.sc = sc
			p.started = true
			sc.Write(sp, 32, startedMsg{proc: i})
		})
	}
}

func scName(app *App, i int) string   { return fmt.Sprintf("stub.sc.%d.%d", app.uid, i) }
func treeName(app *App, i int) string { return fmt.Sprintf("stub.tree.%d.%d", app.uid, i) }

// serve handles system calls arriving on one channel (per-process
// stub): each is executed on the host and answered.
func (st *Stub) serve(sp *kern.Subprocess, ch *channels.Channel) {
	for {
		m, ok := ch.Read(sp)
		if !ok {
			return
		}
		rep := st.execute(sp, m.Payload.(scReq))
		if ch.Write(sp, repBytes, rep) != nil {
			return
		}
	}
}

// serveMux handles system calls from all processes of the application
// through one shared stub. A blocking call stalls every other
// process's system calls — the §3.3 problem.
func (st *Stub) serveMux(sp *kern.Subprocess, scs []*channels.Channel) {
	for {
		ch, m, ok := channels.MuxRead(sp, scs...)
		if !ok {
			return
		}
		rep := st.execute(sp, m.Payload.(scReq))
		if ch.Write(sp, repBytes, rep) != nil {
			return
		}
	}
}

// execute runs one forwarded UNIX system call on the host.
func (st *Stub) execute(sp *kern.Subprocess, req scReq) scRep {
	st.Syscalls++
	costs := st.host.Kern.Costs()
	sp.Compute(costs.HostSyscall)
	switch req.kind {
	case "open":
		if len(st.fds) >= costs.HostMaxFDs {
			return scRep{fd: -1, err: "too many open files"}
		}
		fd := st.nextFD
		st.nextFD++
		st.fds[fd] = req.arg
		return scRep{fd: fd}
	case "close":
		delete(st.fds, int(req.dur)) // dur doubles as the fd argument
		return scRep{}
	case "block":
		// A blocking call (e.g. a read from the keyboard): the stub
		// is held for the duration.
		sp.SleepFor(req.dur)
		return scRep{}
	default: // "write", "read", ... : plain host work
		sp.Compute(req.dur)
		return scRep{}
	}
}

// Syscall issues a forwarded UNIX system call from the node process:
// the request crosses to the stub, executes on the host, and the
// reply comes back. kind is "open", "close", "block", or anything
// else for plain host work of duration dur. For "open", arg names the
// file and the returned fd is >= 0 on success.
func (p *Proc) Syscall(sp *kern.Subprocess, kind, arg string, dur sim.Duration) (int, error) {
	if !p.started {
		return -1, fmt.Errorf("stub: process %d not started", p.id)
	}
	if err := p.sc.Write(sp, reqBytes, scReq{kind: kind, arg: arg, dur: dur}); err != nil {
		return -1, err
	}
	m, ok := p.sc.Read(sp)
	if !ok {
		return -1, fmt.Errorf("stub: syscall channel closed")
	}
	rep := m.Payload.(scRep)
	if rep.err != "" {
		return rep.fd, fmt.Errorf("stub: %s", rep.err)
	}
	return rep.fd, nil
}
