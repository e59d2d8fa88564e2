// Command benchtables regenerates every table and figure of the
// paper's evaluation from the simulation and prints them with the
// paper's published numbers alongside.
//
// Usage:
//
//	benchtables              # all experiments, serially
//	benchtables -t T1,E2     # selected experiments
//	benchtables -workers 0   # replicate across one worker per CPU
//	benchtables -list        # list experiment ids
//
// Each experiment builds its own share-nothing simulation, so -workers
// only changes wall-clock time: the printed output is byte-identical
// to the serial run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hpcvorx/internal/vorxbench"
)

func main() {
	sel := flag.String("t", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	workers := flag.Int("workers", 1, "replication workers; 0 = one per CPU (output is identical to -workers 1)")
	flag.Parse()

	if *list {
		for _, id := range vorxbench.IDs() {
			fmt.Println(id)
		}
		return
	}
	ids := vorxbench.IDs()
	if *sel != "" {
		ids = strings.Split(*sel, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	for i, tb := range vorxbench.RunIDs(ids, *workers) {
		if tb == nil {
			fmt.Fprintf(os.Stderr, "benchtables: unknown experiment %q (try -list)\n", ids[i])
			os.Exit(1)
		}
		tb.Format(os.Stdout)
	}
}
