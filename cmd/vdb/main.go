// Command vdb demonstrates the VORX symbolic debugger (paper §6) on a
// running three-process application: it attaches to a process that is
// already executing, stops it at a breakpoint, examines its variables
// while the other processes keep running, switches processes, and
// continues.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/vdb"
)

func main() {
	procs := flag.Int("procs", 3, "application processes")
	flag.Parse()
	// The demo attaches to proc1.
	if *procs < 2 {
		fmt.Fprintf(os.Stderr, "vdb: -procs %d: want at least 2\n", *procs)
		os.Exit(2)
	}

	sys, err := core.Build(core.Config{Nodes: *procs, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	reg := vdb.NewRegistry()
	iters := make([]int, *procs)
	for i := 0; i < *procs; i++ {
		i := i
		sys.Spawn(sys.Node(i), fmt.Sprintf("app%d", i), 0, func(sp *kern.Subprocess) {
			name := fmt.Sprintf("proc%d", i)
			reg.RegisterProcess(sp, name)
			reg.Var(name, "iter", func() string { return fmt.Sprint(iters[i]) })
			reg.Var(name, "node", func() string { return sp.Node().Name() })
			for iters[i] = 0; iters[i] < 40; iters[i]++ {
				reg.Point(sp, "mainloop")
				sp.Compute(sim.Microseconds(250))
			}
		})
	}

	d := reg.NewDebugger()
	// Attach mid-run, the way a VORX programmer would when a process
	// misbehaves.
	sys.K.After(sim.Milliseconds(3), func() {
		fmt.Printf("[%8.0f µs] $ vdb\n", sys.K.Now().Microseconds())
		fmt.Printf("processes: %v\n", d.Processes())
		target := "proc1"
		if err := d.Attach(target); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("attached to %s (already running)\n", target)
		d.Break("mainloop")
		fmt.Println("breakpoint set at mainloop")
		d.OnStop(func(loc string) {
			fmt.Printf("[%8.0f µs] %s stopped at %q\n", sys.K.Now().Microseconds(), target, loc)
			for _, v := range d.Vars() {
				val, _ := d.Print(v)
				fmt.Printf("    %s = %s\n", v, val)
			}
			fmt.Printf("    other processes still running: %v\n", otherProgress(iters, 1))
			sys.K.After(sim.Milliseconds(2), func() {
				fmt.Printf("[%8.0f µs] while stopped, others advanced: %v\n",
					sys.K.Now().Microseconds(), otherProgress(iters, 1))
				d.Clear("mainloop")
				fmt.Println("clearing breakpoint, continuing")
				if err := d.Continue(); err != nil {
					log.Fatal(err)
				}
			})
		})
	})

	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\napplication finished at %v; final iterations: %v\n", sys.K.Now(), iters)
}

func otherProgress(iters []int, except int) map[string]int {
	out := map[string]int{}
	for i, v := range iters {
		if i != except {
			out[fmt.Sprintf("proc%d", i)] = v
		}
	}
	return out
}
