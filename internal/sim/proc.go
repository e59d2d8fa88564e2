package sim

import "errors"

// errKilled is panicked inside a parked proc by Shutdown so that its
// goroutine unwinds and exits.
var errKilled = errors.New("sim: proc killed")

type procState uint8

const (
	procNew procState = iota
	procRunning
	procParked
	procDone
)

// Proc is a simulated process: a goroutine scheduled cooperatively by
// the Kernel in virtual time. All Proc methods must be called from the
// proc's own goroutine while it holds the run token (i.e. from within
// the function passed to Spawn, directly or indirectly).
type Proc struct {
	k          *Kernel
	id         int
	name       string
	resume     chan struct{}
	waitReason string
	panicked   any
	state      procState
	killed     bool
	daemon     bool

	// parkPending holds the reason for an armed Park awaiting Block.
	parkPending string
	// Armed parks (see Arm). parkGen is the latest token; bit i of
	// unwoken is set while the park armed with token parkGen-i has not
	// been woken. Unwoken tokens older than the 64-bit window move to
	// the kernel's oldUnwoken list, so every park's waker stays good
	// for exactly one wake however many parks follow it.
	parkGen ParkToken
	unwoken uint64

	// resumeFn is the proc's switch-in thunk, bound once at spawn so
	// the hot wake paths (unpark, Sleep, Yield) schedule it without
	// allocating a fresh closure each time.
	resumeFn func()
}

// SetDaemon marks the proc as a background service: a simulation where
// only daemons remain blocked is complete, not deadlocked. Use it for
// kernel drain loops and other forever-servers.
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// Daemon reports whether the proc is a daemon.
func (p *Proc) Daemon() bool { return p.daemon }

// Kernel returns the kernel this proc runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// ID returns the proc's unique id (spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the proc's name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// WaitReason returns why the proc is blocked ("" when running).
func (p *Proc) WaitReason() string { return p.waitReason }

// park blocks the proc until some kernel-side event resumes it.
// reason is recorded for deadlock reports.
func (p *Proc) park(reason string) {
	p.waitReason = reason
	p.state = procParked
	p.k.yield <- struct{}{}
	<-p.resume
	p.state = procRunning
	p.waitReason = ""
	if p.killed {
		panic(errKilled)
	}
}

// unpark schedules the proc to resume at the current virtual time,
// after events already queued at this instant. It must be called from
// kernel context or from another running proc.
func (p *Proc) unpark() {
	p.k.At(p.k.now, p.resumeFn)
}

// Sleep blocks the proc for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		p.Yield()
		return
	}
	p.k.At(p.k.now.Add(d), p.resumeFn)
	p.park("sleep")
}

// SleepUntil blocks the proc until the given instant.
func (p *Proc) SleepUntil(t Time) {
	if t <= p.k.now {
		p.Yield()
		return
	}
	p.k.At(t, p.resumeFn)
	p.park("sleep-until")
}

// Yield relinquishes the token until all other work scheduled at the
// current instant has run.
func (p *Proc) Yield() {
	p.k.At(p.k.now, p.resumeFn)
	p.park("yield")
}

// ParkToken identifies one armed park of a proc (see Arm).
type ParkToken uint64

// parkRef names one armed park of one proc.
type parkRef struct {
	p   *Proc
	tok ParkToken
}

// Arm prepares the proc to park for reason and returns the token that
// wakes it: hand the token to the waker, then call Block. It is the
// allocation-free form of Park, for a proc whose waker can hold a token
// instead of a closure, with the same semantics: each armed park's
// token resumes the proc on its first Wake and is a no-op after that.
// Parks may nest (arm, then block on something else first); every
// armed token still counts for one resume.
func (p *Proc) Arm(reason string) ParkToken {
	if p.unwoken>>63 != 0 {
		p.k.oldUnwoken = append(p.k.oldUnwoken, parkRef{p, p.parkGen - 63})
	}
	p.parkGen++
	p.unwoken = p.unwoken<<1 | 1
	// The caller hands the token out *before* blocking, so return
	// first and let the caller invoke Block.
	p.parkPending = reason
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

// Park blocks the proc until another process or event calls the
// returned wake function. Calling wake more than once is a no-op; the
// wake function may be called from any simulation context. It is Arm
// with the token bound into a closure.
//
// Park is the escape hatch used to build higher-level primitives.
func (p *Proc) Park(reason string) (wake func()) {
	tok := p.Arm(reason)
	return func() { p.Wake(tok) }
}

// Block parks the proc; it must follow an Arm or Park call.
func (p *Proc) Block() {
	reason := p.parkPending
	p.parkPending = ""
	p.park(reason)
}
