package main

import (
	"flag"
	"fmt"
	"os"

	"hpcvorx/internal/core"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/resmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/vchan"
	"hpcvorx/internal/verify"
)

// runVChan demonstrates channel virtualization: many logical
// vchannels multiplexed onto a few broker lanes, with a forced live
// migration mid-stream. The balancer's decision log shows the seal →
// drain → re-place chain; the delivery check shows the stream arrived
// exactly once, in order, across the move.
func runVChan(args []string, tc *traceCtx) {
	fs := flag.NewFlagSet("vchan", flag.ExitOnError)
	nodes := fs.Int("nodes", 12, "processing nodes")
	tenants := fs.Int("tenants", 6, "vchannels to declare")
	brokers := fs.Int("brokers", 2, "broker nodes (picked via the resource manager)")
	lanes := fs.Int("lanes", 2, "physical lanes per broker")
	window := fs.Int("window", 8, "per-lane sliding window")
	msgs := fs.Int("msgs", 30, "messages per vchannel")
	move := fs.String("move", "t0", "vchannel to force-migrate mid-stream (empty: none)")
	moveAt := fs.String("moveat", "3ms", "when the forced migration fires")
	auto := fs.String("auto", "", "enable load-driven auto-rebalance with this sweep period, e.g. 2ms")
	horizon := fs.String("horizon", "60ms", "run horizon (balancer beacons tick forever)")
	doVerify := fs.Bool("verify", true, "attach the invariant checker; exit 1 on any violation")
	dump := fs.Bool("dump", false, "dump per-machine writer/reader/lane state at the end")
	seed := fs.Int64("seed", 1, "build seed")
	comm := commFlag(fs)
	fs.Parse(args)

	durs := map[string]sim.Duration{}
	for name, s := range map[string]*string{"moveat": moveAt, "horizon": horizon} {
		d, err := fault.ParseDuration(*s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vorx: -%s: %v\n", name, err)
			os.Exit(1)
		}
		durs[name] = d
	}
	half := (*nodes - *brokers) / 2
	if half < 1 || *tenants < 1 {
		fmt.Fprintf(os.Stderr, "vorx: need at least %d nodes for %d brokers plus a producer and a consumer\n", *brokers+2, *brokers)
		os.Exit(1)
	}

	sys, err := core.Build(core.Config{Hosts: 1, Nodes: *nodes, Seed: *seed, Comm: comm()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}
	tc.arm(sys)
	// The application owns the endpoint nodes; the fabric asks the
	// resource manager for broker nodes out of what remains.
	res := resmgr.NewVORX(sys.K, *nodes)
	if _, err := res.Allocate("app", 2*half); err != nil {
		fmt.Fprintln(os.Stderr, "vorx:", err)
		os.Exit(1)
	}
	cfg := vchan.Config{BrokerCount: *brokers, LanesPerBroker: *lanes, Window: *window}
	if *auto != "" {
		d, err := fault.ParseDuration(*auto)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vorx: -auto: %v\n", err)
			os.Exit(1)
		}
		cfg.AutoEvery = d
	}
	fab := vchan.EnableWith(sys, cfg, res)
	type tenant struct {
		name       string
		prod, cons *core.Machine
	}
	ts := make([]tenant, *tenants)
	for i := range ts {
		ts[i] = tenant{name: fmt.Sprintf("t%d", i),
			prod: sys.Node(i % half), cons: sys.Node(half + i%half)}
		fab.Declare(ts[i].name, ts[i].prod, ts[i].cons)
	}
	var chk *verify.Checker
	if *doVerify {
		chk = verify.AttachAll(sys, fab)
	}
	fab.Start()

	got := make([][]int, *tenants)
	for i, tn := range ts {
		i, tn := i, tn
		sys.Spawn(tn.prod, "w/"+tn.name, 1, func(sp *kern.Subprocess) {
			w := fab.On(tn.prod).OpenWriter(sp, tn.name)
			for k := 0; k < *msgs; k++ {
				if err := w.Write(sp, 128, k); err != nil {
					return
				}
				sp.SleepFor(150 * sim.Microsecond)
			}
		})
		sys.Spawn(tn.cons, "r/"+tn.name, 1, func(sp *kern.Subprocess) {
			r := fab.On(tn.cons).OpenReader(sp, tn.name)
			for k := 0; k < *msgs; k++ {
				m, err := r.Read(sp)
				if err != nil {
					return
				}
				got[i] = append(got[i], m.Payload.(int))
			}
		})
	}

	bal := fab.Balancer()
	if *move != "" {
		name := *move
		sys.K.After(durs["moveat"], func() {
			node, _, _, ok := bal.Placement(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "vorx: -move %s: unknown vchannel\n", name)
				return
			}
			for _, bn := range bal.BrokerNodes() {
				if bn != node {
					bal.MigrateTo(name, bn)
					return
				}
			}
		})
	}
	sys.RunFor(durs["horizon"])

	fmt.Printf("vchan on 1 host + %d nodes: %d vchannels over %d brokers x %d lanes, window %d\n\n",
		*nodes, *tenants, *brokers, *lanes, *window)
	fmt.Println("balancer decisions:")
	bal.Report(os.Stdout)
	fmt.Println("\nplacements:")
	for _, tn := range ts {
		node, lane, term, ok := bal.Placement(tn.name)
		if !ok {
			fmt.Printf("  %-4s unplaced\n", tn.name)
			continue
		}
		fmt.Printf("  %-4s node%d lane%d term=%d\n", tn.name, node, lane, term)
	}
	fmt.Println("\ndelivery:")
	clean := 0
	for i, tn := range ts {
		ordered := len(got[i]) == *msgs
		for k, v := range got[i] {
			if v != k {
				ordered = false
				break
			}
		}
		if ordered {
			clean++
		} else {
			fmt.Printf("  %s: %d/%d delivered\n", tn.name, len(got[i]), *msgs)
		}
	}
	fmt.Printf("  %d/%d vchannels delivered all %d messages exactly once, in order\n", clean, *tenants, *msgs)
	var stale, dups, retrans, fwd int
	for _, m := range sys.Machines() {
		s := fab.On(m)
		stale += s.StaleRefused
		dups += s.Dups
		retrans += s.Retransmits
		fwd += s.Forwarded
	}
	fmt.Printf("  balancer: %d migrations, %d ctrl retransmits, %d still active\n",
		bal.Migrations, bal.CtrlRetries, bal.ActiveMigrations())
	fmt.Printf("  data path: %d frames forwarded, %d producer retransmits, %d dups suppressed, %d stale-term frames refused\n",
		fwd, retrans, dups, stale)
	fmt.Printf("  virtual time at quiesce: %v\n", sys.K.Now())
	if *dump {
		fmt.Println("\nstate dump:")
		for _, m := range sys.Machines() {
			fab.On(m).Dump(os.Stdout)
		}
	}
	if chk != nil {
		fmt.Println()
		chk.Report(os.Stdout)
		if !chk.Ok() {
			os.Exit(1)
		}
	}
	tc.finish(sys)
}
