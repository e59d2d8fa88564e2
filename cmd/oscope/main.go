// Command oscope demonstrates the VORX software oscilloscope (§6.2)
// on a deliberately imbalanced pipeline application, rendering the
// synchronized per-processor utilization graphs.
//
// Usage:
//
//	oscope [-nodes N] [-width W] [-from µs] [-to µs]
//	oscope -record trace.txt          # save the run's execution data
//	oscope -load trace.txt            # display a previously saved run
package main

import (
	"flag"
	"fmt"
	"os"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/oscope"
	"hpcvorx/internal/sim"
)

func main() {
	nodes := flag.Int("nodes", 4, "pipeline stages")
	width := flag.Int("width", 72, "columns in the rendered graphs")
	fromUS := flag.Float64("from", 0, "window start (µs; 0 = run start)")
	toUS := flag.Float64("to", 0, "window end (µs; 0 = run end)")
	record := flag.String("record", "", "save execution data to this file after the run")
	load := flag.String("load", "", "display a previously recorded trace instead of running")
	group := flag.Int("group", 0, "fold this many processors per row (0 = one row each)")
	flag.Parse()

	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oscope:", err)
			os.Exit(1)
		}
		defer f.Close()
		sc, err := oscope.Load(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err) // Load's errors carry the "oscope:" prefix
			os.Exit(1)
		}
		// "later the software oscilloscope is used to display the
		// data" — §6.2's record-then-display workflow.
		sc.RenderAll(os.Stdout, *width)
		return
	}

	sys, err := core.Build(core.Config{Nodes: *nodes, Seed: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "oscope:", err)
		os.Exit(1)
	}
	sc := oscope.Attach(sys)

	// A pipeline where stage i computes i+1 units per message: later
	// stages are busier, earlier ones wait for output to drain —
	// exactly the load-balance problem §6.2 says profilers miss.
	n := *nodes
	const msgs = 12
	for i := 0; i < n; i++ {
		i := i
		m := sys.Node(i)
		sys.Spawn(m, fmt.Sprintf("stage%d", i), 0, func(sp *kern.Subprocess) {
			var in, out *channels.Channel
			if i > 0 {
				in = m.Chans.Open(sp, fmt.Sprintf("pipe.%d", i-1), objmgr.OpenAny)
			}
			if i < n-1 {
				out = m.Chans.Open(sp, fmt.Sprintf("pipe.%d", i), objmgr.OpenAny)
			}
			for k := 0; k < msgs; k++ {
				if in != nil {
					if _, ok := in.Read(sp); !ok {
						return
					}
				}
				sp.Compute(sim.Milliseconds(float64(i + 1)))
				if out != nil {
					if err := out.Write(sp, 512, nil); err != nil {
						return
					}
				}
			}
		})
	}
	if err := sys.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "oscope: run:", err)
	}
	sc.Finalize()

	from := sim.Time(sim.Microseconds(*fromUS))
	to := sim.Time(sim.Microseconds(*toUS))
	if to == 0 {
		to = sys.K.Now()
	}
	if *group > 1 {
		sc.RenderGrouped(os.Stdout, from, to, *width, *group)
	} else {
		sc.Render(os.Stdout, from, to, *width)
	}
	fmt.Printf("\nload imbalance (max-min busy fraction): %.0f%%\n", 100*sc.Imbalance(from, to))

	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oscope:", err)
			os.Exit(1)
		}
		if err := sc.Save(f); err != nil {
			fmt.Fprintln(os.Stderr, "oscope:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("execution data saved to %s (replay with -load)\n", *record)
	}
}
