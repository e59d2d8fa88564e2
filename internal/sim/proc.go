package sim

import "errors"

// errKilled is panicked inside a parked proc by Shutdown so that its
// body unwinds and its runner exits.
var errKilled = errors.New("sim: proc killed")

type procState uint8

const (
	procNew procState = iota
	procRunning
	procParked
	procDone
)

// Proc is a simulated process: a coroutine scheduled cooperatively by
// the Kernel in virtual time. All Proc methods must be called from the
// proc's own runner while it holds the run token (i.e. from within
// the function passed to Spawn, directly or indirectly).
type Proc struct {
	k    *Kernel
	name string
	body func(p *Proc) // the function passed to Spawn, until it starts
	run  *runner       // the coroutine it runs on, from its start to its end
	// waitWhat and waitName are why the proc is parked, as its park gave
	// them; WaitReason joins them only when someone reads it.
	waitWhat, waitName string
	state              procState
	killed             bool
	daemon             bool

	// Armed parks (see Arm). parkGen is the latest token; bit i of
	// unwoken is set while the park armed with token parkGen-i has not
	// been woken. Unwoken tokens older than the 64-bit window move to
	// the kernel's oldUnwoken list, so every park's waker stays good
	// for exactly one wake however many parks follow it.
	parkGen ParkToken
	unwoken uint64
}

// SetDaemon marks the proc as a background service: a simulation where
// only daemons remain blocked is complete, not deadlocked. Use it for
// kernel drain loops and other forever-servers.
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// Kernel returns the kernel this proc runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the proc's name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// WaitReason returns why the proc is blocked ("" when running): the
// what and name its park gave, joined.
func (p *Proc) WaitReason() string { return p.waitWhat + p.waitName }

// park blocks the proc until some event resumes it. what and name are
// recorded for deadlock reports and joined only when read, so a park
// allocates nothing; what carries its own separator ("chan-read ",
// "vchan/"). The parking proc runs the event loop itself, up to the
// next proc resume. If that is its own, it continues with no switch;
// otherwise it yields that proc (nil when the run ends) to the run
// goroutine, which resumes it. Outside a run (Shutdown) the bound is noRun, so it
// dispatches nothing and yields at once.
func (p *Proc) park(what, name string) {
	p.waitWhat, p.waitName = what, name
	p.state = procParked
	if next := p.k.dispatchOnProc(); next != p {
		p.run.yield(next)
	}
	p.state = procRunning
	p.waitWhat, p.waitName = "", ""
	if p.killed {
		panic(errKilled)
	}
}

// resumeAt schedules the proc to start or resume at time t.
func (p *Proc) resumeAt(t Time) {
	p.k.At(t, nil).ev.proc = p
}

// unpark schedules the proc to resume at the current virtual time,
// after events already queued at this instant. It must be called from
// kernel context or from another running proc.
func (p *Proc) unpark() {
	p.resumeAt(p.k.now)
}

// Sleep blocks the proc for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		p.Yield()
		return
	}
	p.resumeAt(p.k.now.Add(d))
	p.park("sleep", "")
}

// Yield relinquishes the token until all other work scheduled at the
// current instant has run.
func (p *Proc) Yield() {
	p.resumeAt(p.k.now)
	p.park("yield", "")
}

// ParkToken identifies one armed park of a proc (see Arm).
type ParkToken uint64

// parkRef names one armed park of one proc.
type parkRef struct {
	p   *Proc
	tok ParkToken
}

// Arm prepares the proc to park and returns the token that wakes it:
// hand the proc and the token to the waker, then call Block, which
// gives the reason. Each armed park's token resumes the proc on its
// first Wake and is a no-op after that. Parks may nest (arm, then block
// on something else first); every armed token still counts for one
// resume, and each Block parks with its own reason.
//
// Arm and Wake are the escape hatch used to build higher-level
// primitives.
func (p *Proc) Arm() ParkToken {
	if p.unwoken>>63 != 0 {
		p.k.oldUnwoken = append(p.k.oldUnwoken, parkRef{p, p.parkGen - 63})
	}
	p.parkGen++
	p.unwoken = p.unwoken<<1 | 1
	// The caller hands the token out *before* blocking, so return
	// first and let the caller invoke Block.
	return p.parkGen
}

// Wake resumes the proc for the park armed with tok, at the current
// virtual time after events already queued at this instant, unless
// that park has already been woken. It may be called from any
// simulation context.
func (p *Proc) Wake(tok ParkToken) {
	if d := p.parkGen - tok; d < 64 {
		if p.unwoken&(1<<d) == 0 {
			return
		}
		p.unwoken &^= 1 << d
	} else {
		old := p.k.oldUnwoken
		i := 0
		for i < len(old) && old[i] != (parkRef{p, tok}) {
			i++
		}
		if i == len(old) {
			return
		}
		p.k.oldUnwoken = append(old[:i], old[i+1:]...)
	}
	p.unpark()
}

// Block parks the proc; it must follow an Arm call. what and
// name, joined, are the reason deadlock reports and cdb show (see
// WaitReason).
func (p *Proc) Block(what, name string) { p.park(what, name) }
