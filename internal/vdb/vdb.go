// Package vdb is the VORX symbolic debugger (paper §6): a
// single-process breakpoint debugger, derived from sdb, extended so
// that the programmer can attach to *any* process that is already
// running and switch between the processes of an application — the
// capability VORX added because "the programmer may not know in
// advance which process needs to be debugged".
//
// Each simulation makes one Registry. Its processes register with it
// and cooperate by declaring program locations:
//
//	reg := vdb.NewRegistry()
//	reg.RegisterProcess(sp, "solver")
//	reg.Point(sp, "solver.loop")   // a potential breakpoint site
//
// A Debugger made from the registry attaches to named processes, sets
// breakpoints on locations, and when a process hits one it stops (in
// virtual time) until the debugger continues it. While stopped,
// registered variables can be inspected — the vdb enhancement of
// examining each subprocess's locals. Processes without an attached
// debugger run at full speed; Point costs nothing unless a breakpoint
// is armed.
package vdb

import (
	"fmt"
	"sort"

	"hpcvorx/internal/kern"
)

// Registry connects one simulation's running subprocesses to its
// debuggers. It needs no lock: a simulation runs one thing at a time.
type Registry struct {
	procs map[string]*target
	bySP  map[*kern.Subprocess]*target
}

// NewRegistry returns an empty registry for one simulation.
func NewRegistry() *Registry {
	return &Registry{procs: map[string]*target{}, bySP: map[*kern.Subprocess]*target{}}
}

// target is one debuggable process.
type target struct {
	name    string
	vars    map[string]func() string
	breaks  map[string]bool
	stopped bool
	stopLoc string
	resume  kern.Waker
	onStop  func(loc string)
	hits    int
}

// RegisterProcess makes the calling subprocess debuggable under name.
// Call once at process start.
func (r *Registry) RegisterProcess(sp *kern.Subprocess, name string) {
	tg := &target{
		name:   name,
		vars:   map[string]func() string{},
		breaks: map[string]bool{},
	}
	r.procs[name] = tg
	r.bySP[sp] = tg
}

// Var registers a named variable of the process: the closure is
// evaluated when the debugger prints it.
func (r *Registry) Var(name, varName string, read func() string) {
	if tg := r.procs[name]; tg != nil {
		tg.vars[varName] = read
	}
}

// Point declares a program location in the process owning sp. If a
// debugger armed a breakpoint there, the process stops until
// continued.
func (r *Registry) Point(sp *kern.Subprocess, loc string) {
	tg := r.bySP[sp]
	if tg == nil || !tg.breaks[loc] {
		return
	}
	tg.hits++
	tg.stopped = true
	tg.stopLoc = loc
	tg.resume = sp.Block(kern.WaitOther)
	if tg.onStop != nil {
		tg.onStop(loc)
	}
	sp.BlockNow("vdb-stop ", tg.name+"@"+loc)
	tg.stopped = false
	tg.stopLoc = ""
}

// Debugger is one vdb session. It can attach to any running process
// and switch between them.
type Debugger struct {
	reg     *Registry
	current string
}

// NewDebugger creates a debugger session over the registry's
// processes.
func (r *Registry) NewDebugger() *Debugger { return &Debugger{reg: r} }

// Processes lists the debuggable processes, sorted.
func (d *Debugger) Processes() []string {
	var out []string
	for name := range d.reg.procs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Attach switches the session to the named process — possible even
// though the process is already running, the key VORX improvement.
func (d *Debugger) Attach(name string) error {
	if d.reg.procs[name] == nil {
		return fmt.Errorf("vdb: no process %q", name)
	}
	d.current = name
	return nil
}

// Current returns the attached process name.
func (d *Debugger) Current() string { return d.current }

func (d *Debugger) target() (*target, error) {
	tg := d.reg.procs[d.current]
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
func (r *Registry) StoppedProcesses() map[string]string {
	out := map[string]string{}
	for name, tg := range r.procs {
		if tg.stopped {
			out[name] = tg.stopLoc
		}
	}
	return out
}
