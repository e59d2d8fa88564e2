//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// A runner is the coroutine a proc runs on, made with iter.Pull. Its
// body loops: run one proc's body, yield to the run goroutine, wait
// for the next proc. The run goroutine is the one that called Run or
// RunUntil, or a Group shard's goroutine: it resumes a runner
// (Kernel.resume), and the runner yields back when its proc parks and
// hands the token on, or when its proc ends. A switch between two
// procs is therefore two coroutine switches, through the run
// goroutine, and never a trip through the Go scheduler; a parking proc
// whose own resume comes next does not switch at all (see Proc.park).
// A proc may also park from a coroutine its runner resumes (kern's
// coroutines are iter.Pull coroutines too): a coroutine switch swaps
// whichever goroutine makes it with the one waiting, so that park's
// yield reaches the run goroutine too, and a kill's panic comes back
// out of that coroutine onto the runner.
type runner struct {
	p     *Proc // the proc it runs; set by the run goroutine, cleared when the proc ends
	next  func() (*Proc, bool)
	stop  func()
	yield func(*Proc) bool // to the run goroutine, with the proc to resume next
}

// maxIdleRunners caps the idle pool, as netif.MaxFreeShells caps a
// shell list: past it, a runner whose proc ends exits instead.
const maxIdleRunners = 1024

// runners is the pool of idle runners, shared by every kernel: it must
// outlive a kernel, because a harness that builds a fresh machine for
// every run would otherwise make a coroutine for every proc of every
// run. Shards on different threads start procs, so a mutex guards it,
// and it is the only way a runner passes from one shard's goroutine to
// another's.
var runners struct {
	mu   sync.Mutex
	idle []*runner
}

// takeRunner returns an idle runner, or makes one.
func takeRunner() *runner {
	runners.mu.Lock()
	if n := len(runners.idle); n > 0 {
		r := runners.idle[n-1]
		runners.idle[n-1] = nil
		runners.idle = runners.idle[:n-1]
		runners.mu.Unlock()
		return r
	}
	runners.mu.Unlock()
	r := &runner{}
	r.next, r.stop = iter.Pull(r.loop)
	return r
}

// putRunner returns a runner whose proc has ended to the pool, or ends
// its coroutine when the pool is full.
func putRunner(r *runner) {
	runners.mu.Lock()
	if len(runners.idle) < maxIdleRunners {
		runners.idle = append(runners.idle, r)
		runners.mu.Unlock()
		return
	}
	runners.mu.Unlock()
	r.stop()
}

// loop is a runner's body. It yields nil when its proc ends, so an
// idle runner holds no proc. A killed proc's runner exits with it
// (Shutdown), so killing the procs a run left parked ends their
// coroutines too.
func (r *runner) loop(yield func(*Proc) bool) {
	r.yield = yield
	for {
		p := r.p
		p.k.procMain(p)
		if p.killed || !yield(nil) {
			return
		}
	}
}

// resume runs p on its runner, taking one from the pool when p is new,
// until p parks or ends, and returns the proc to run next: the one p's
// park dispatched to, or the one dispatch finds after p ended. A panic
// the runner caught (a proc's, or an event callback's on the proc's
// runner) is re-raised here, on the run goroutine.
func (k *Kernel) resume(p *Proc) *Proc {
	r := p.run
	if r == nil {
		r = takeRunner()
		r.p, p.run = p, r
	}
	p.state = procRunning
	next, alive := r.next()
	ended := p.state == procDone
	if ended {
		r.p, p.run = nil, nil
		if alive {
			putRunner(r)
		}
	}
	if v := k.panicked; v != nil {
		k.panicked = nil
		panic(v)
	}
	if ended {
		next = k.dispatch()
	}
	return next
}
