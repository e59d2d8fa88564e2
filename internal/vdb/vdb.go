// Package vdb is the VORX symbolic debugger (paper §6): a
// single-process breakpoint debugger, derived from sdb, extended so
// that the programmer can attach to *any* process that is already
// running and switch between the processes of an application — the
// capability VORX added because "the programmer may not know in
// advance which process needs to be debugged".
//
// Simulated programs cooperate by declaring program locations:
//
//	vdb.Point(sp, "solver.loop")   // a potential breakpoint site
//
// A Debugger attaches to named processes, sets breakpoints on
// locations, and when a process hits one it stops (in virtual time)
// until the debugger continues it. While stopped, registered
// variables can be inspected — the vdb enhancement of examining each
// subprocess's locals. Processes without an attached debugger run at
// full speed; Point costs nothing unless a breakpoint is armed.
package vdb

import (
	"fmt"
	"sort"
	"sync"

	"hpcvorx/internal/kern"
)

// registry connects running subprocesses to debuggers. One registry
// per simulation is typical; it is internally synchronized only in
// the trivial sense (the simulation is single-threaded).
type registry struct {
	procs map[string]*target
}

var defaultRegistry = &registry{procs: map[string]*target{}}

// target is one debuggable process.
type target struct {
	name     string
	sp       *kern.Subprocess
	vars     map[string]func() string
	breaks   map[string]bool
	stopped  bool
	stopLoc  string
	resume   kern.Waker
	onStop   func(loc string)
	hits     int
	attached bool
}

// resetForTest clears the registry (tests create many simulations).
var resetMu sync.Mutex

// Reset clears all registered processes; call between independent
// simulations.
func Reset() {
	resetMu.Lock()
	defer resetMu.Unlock()
	defaultRegistry.procs = map[string]*target{}
}

// RegisterProcess makes the calling subprocess debuggable under name.
// Call once at process start.
func RegisterProcess(sp *kern.Subprocess, name string) {
	defaultRegistry.procs[name] = &target{
		name:   name,
		sp:     sp,
		vars:   map[string]func() string{},
		breaks: map[string]bool{},
	}
}

// Var registers a named variable of the process: the closure is
// evaluated when the debugger prints it.
func Var(name, varName string, read func() string) {
	if tg := defaultRegistry.procs[name]; tg != nil {
		tg.vars[varName] = read
	}
}

// Point declares a program location in the process owning sp. If a
// debugger armed a breakpoint there, the process stops until
// continued.
func Point(sp *kern.Subprocess, loc string) {
	var tg *target
	for _, cand := range defaultRegistry.procs {
		if cand.sp == sp {
			tg = cand
			break
		}
	}
	if tg == nil || !tg.breaks[loc] {
		return
	}
	tg.hits++
	tg.stopped = true
	tg.stopLoc = loc
	tg.resume = sp.Block(kern.WaitOther, fmt.Sprintf("vdb-stop %s@%s", tg.name, loc))
	if tg.onStop != nil {
		tg.onStop(loc)
	}
	sp.BlockNow()
	tg.stopped = false
	tg.stopLoc = ""
}

// Debugger is one vdb session. It can attach to any running process
// and switch between them.
type Debugger struct {
	current string
}

// New creates a debugger session.
func New() *Debugger { return &Debugger{} }

// Processes lists the debuggable processes, sorted.
func (d *Debugger) Processes() []string {
	var out []string
	for name := range defaultRegistry.procs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Attach switches the session to the named process — possible even
// though the process is already running, the key VORX improvement.
func (d *Debugger) Attach(name string) error {
	tg := defaultRegistry.procs[name]
	if tg == nil {
		return fmt.Errorf("vdb: no process %q", name)
	}
	tg.attached = true
	d.current = name
	return nil
}

// Current returns the attached process name.
func (d *Debugger) Current() string { return d.current }

func (d *Debugger) target() (*target, error) {
	tg := defaultRegistry.procs[d.current]
	if tg == nil {
		return nil, fmt.Errorf("vdb: not attached")
	}
	return tg, nil
}

// Break arms a breakpoint at a program location of the attached
// process.
func (d *Debugger) Break(loc string) error {
	tg, err := d.target()
	if err != nil {
		return err
	}
	tg.breaks[loc] = true
	return nil
}

// Clear disarms a breakpoint.
func (d *Debugger) Clear(loc string) error {
	tg, err := d.target()
	if err != nil {
		return err
	}
	delete(tg.breaks, loc)
	return nil
}

// OnStop registers a callback fired (in simulation context) when the
// attached process hits a breakpoint.
func (d *Debugger) OnStop(fn func(loc string)) error {
	tg, err := d.target()
	if err != nil {
		return err
	}
	tg.onStop = fn
	return nil
}

// Hits returns how many breakpoints the attached process has hit.
func (d *Debugger) Hits() int {
	tg, err := d.target()
	if err != nil {
		return 0
	}
	return tg.hits
}

// Print evaluates a registered variable of the attached process.
func (d *Debugger) Print(varName string) (string, error) {
	tg, err := d.target()
	if err != nil {
		return "", err
	}
	read, ok := tg.vars[varName]
	if !ok {
		return "", fmt.Errorf("vdb: %s has no variable %q", tg.name, varName)
	}
	return read(), nil
}

// Vars lists the attached process's registered variables, sorted.
func (d *Debugger) Vars() []string {
	tg, err := d.target()
	if err != nil {
		return nil
	}
	var out []string
	for v := range tg.vars {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Continue resumes the attached process if it is stopped.
func (d *Debugger) Continue() error {
	tg, err := d.target()
	if err != nil {
		return err
	}
	if !tg.stopped || !tg.resume.Armed() {
		return fmt.Errorf("vdb: %s is not stopped", tg.name)
	}
	r := tg.resume
	tg.resume = kern.Waker{}
	r.Wake()
	return nil
}

// StoppedProcesses returns every process currently stopped at a
// breakpoint — the multi-window view of the Meglos workflow, without
// the windows.
func StoppedProcesses() map[string]string {
	out := map[string]string{}
	for name, tg := range defaultRegistry.procs {
		if tg.stopped {
			out[name] = tg.stopLoc
		}
	}
	return out
}
