// robot: the real-time motivation for subprocesses (paper §5):
// "Subprocesses were originally included for real-time applications
// that controlled hardware devices, such as robot arms and cameras
// connected to the processing nodes. Because distinct execution
// priorities can be specified for each subprocess and the scheduler
// is preemptive, the programmer had enough control ... to effectively
// implement real-time applications."
//
// A servo-control subprocess must respond to each 10 ms timer
// interrupt within a 2 ms deadline while a background circuit
// simulation grinds on the same node. With priorities the deadlines
// hold; without them the control loop misses constantly.
package main

import (
	"fmt"
	"log"

	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/sim"
)

const (
	period   = 10 * sim.Millisecond
	deadline = 2 * sim.Millisecond
	ticks    = 50
)

// run executes the scenario with the servo at the given priority and
// returns (met, missed) deadlines and the worst response time.
func run(servoPrio int) (met, missed int, worst sim.Duration) {
	sys, err := core.Build(core.Config{Nodes: 1, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	node := sys.Node(0).Kern

	// Background load: a compute-bound circuit simulation.
	bg := sys.Spawn(sys.Node(0), "cemu", 0, func(sp *kern.Subprocess) {
		for {
			sp.Compute(5 * sim.Millisecond)
		}
	})
	bg.Proc().SetDaemon(true)

	// The servo subprocess: woken by the encoder interrupt every
	// period, must issue its actuator command within the deadline.
	var wakeServo kern.Waker
	var tickAt sim.Time
	sys.Spawn(sys.Node(0), "servo", servoPrio, func(sp *kern.Subprocess) {
		for i := 0; i < ticks; i++ {
			wakeServo = sp.Block(kern.WaitInput)
			sp.BlockNow("encoder", "")
			// Control-law computation + actuator command.
			sp.Compute(400 * sim.Microsecond)
			resp := sp.Now().Sub(tickAt)
			if resp > worst {
				worst = resp
			}
			if resp <= deadline {
				met++
			} else {
				missed++
			}
		}
	})

	// The encoder: a hardware timer interrupt every period.
	var tick func()
	n := 0
	tick = func() {
		node.Interrupt(50*sim.Microsecond, func() {
			tickAt = sys.K.Now()
			wakeServo.Wake()
			n++
			if n < ticks {
				sys.K.After(period, tick)
			}
		})
	}
	sys.K.After(period, tick)

	// The background load never exits, so run for the experiment's
	// span rather than to quiescence.
	sys.RunFor(sim.Duration(ticks+2) * period)
	sys.Shutdown()
	return met, missed, worst
}

func main() {
	fmt.Printf("servo control: %v period, %v response deadline, heavy background compute\n\n",
		period, deadline)
	for _, cfg := range []struct {
		label string
		prio  int
	}{
		{"equal priority (no preemption over background)", 0},
		{"high priority (preemptive, as VORX provides)", 5},
	} {
		met, missed, worst := run(cfg.prio)
		fmt.Printf("%-48s met %2d/%2d deadlines, worst response %v\n",
			cfg.label, met, met+missed, worst)
	}
	fmt.Println("\npaper §5: preemptive priorities are what made robot-arm control")
	fmt.Println("feasible on Meglos and VORX processing nodes.")
}
