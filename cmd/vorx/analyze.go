package main

// vorx analyze — the latency observatory's CLI surface. Two modes:
//
//	vorx analyze -in flight.txt          offline: replay a flight-recorder
//	                                     dump through the critical-path
//	                                     analyzer
//	vorx analyze -demo heal [flags...]   live: run a demo with the analyzer
//	                                     and the virtual-time series sampler
//	                                     riding the tracer's forward sink
//
// Offline mode has no series: a flight dump carries events, not
// registry state, so sampling is a live-only feature. Everything the
// command prints is virtual-time derived and therefore deterministic —
// CI diffs double runs byte-for-byte.

import (
	"flag"
	"fmt"
	"os"

	"hpcvorx/internal/fault"
	"hpcvorx/internal/obs"
	"hpcvorx/internal/trace"
)

func cmdAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("in", "", "analyze this flight-recorder dump (offline mode)")
	demo := fs.String("demo", "", "run and analyze a demo live: mix, ping, links, chaos, heal, vchan")
	series := fs.String("series", "500us", "virtual-time sampling period for the metrics series (live mode)")
	seriesRing := fs.Int("series-ring", 0, "keep only the newest N series samples (0 = unbounded)")
	csv := fs.String("csv", "", "write the sampled metrics series as CSV here (live mode)")
	om := fs.String("openmetrics", "", "write the metrics registry in OpenMetrics text format here (live mode)")
	top := fs.Int("top", 5, "show the N slowest writes with their component breakdowns")
	flight := fs.String("flight", "", "also write the run's flight-recorder dump here (live mode)")
	ring := fs.Int("ring", 0, "bounded trace memory: keep only the newest N events (live mode)")
	fs.Parse(args)

	if (*in == "") == (*demo == "") {
		fmt.Fprintln(os.Stderr, "vorx analyze: need exactly one of -in <flight file> or -demo <name>")
		os.Exit(2)
	}

	if *in != "" {
		analyzeFlightFile(*in, *top)
		return
	}

	period, err := fault.ParseDuration(*series)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vorx analyze: -series: %v\n", err)
		os.Exit(1)
	}
	tc := &traceCtx{
		flight:     *flight,
		ring:       *ring,
		analyze:    true,
		series:     period,
		seriesRing: *seriesRing,
		csv:        *csv,
		om:         *om,
		top:        *top,
	}
	rest := fs.Args()
	switch *demo {
	case "mix":
		runMix(rest, tc)
	case "ping":
		runPing(rest, tc)
	case "links":
		runLinks(rest, tc)
	case "chaos":
		runChaos(rest, tc)
	case "heal":
		runHeal(rest, tc)
	case "vchan":
		runVChan(rest, tc)
	default:
		fmt.Fprintf(os.Stderr, "vorx analyze: unknown demo %q (want mix, ping, links, chaos, heal, vchan)\n", *demo)
		os.Exit(2)
	}
}

func analyzeFlightFile(path string, top int) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}
	events, err := trace.ReadFlight(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}
	fmt.Printf("analyze: %s\n", path)
	rep := obs.Analyze(events)
	rep.WriteTable(os.Stdout)
	rep.WriteTop(os.Stdout, top)
	if err := rep.Check(); err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}
}
