// Package core assembles the full HPC/VORX local area multicomputer:
// a pool of processing nodes and a set of host workstations, all
// attached to an HPC interconnect, each running a VORX kernel with its
// network interface, channel service, and object manager (Figure 1 of
// the paper).
//
// A System is built from a Config and then driven entirely in virtual
// time. Applications are spawned as subprocesses on nodes or hosts and
// may span any combination of them — the defining property of a local
// area multicomputer.
package core

import (
	"fmt"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/m68k"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
	"hpcvorx/internal/trace"
)

// Config describes the machine to build.
type Config struct {
	// Hosts is the number of workstations (the paper's installation
	// had ten SUN 3s).
	Hosts int
	// Nodes is the number of processing nodes (the paper's pool had
	// 70).
	Nodes int
	// NodesPerCluster controls hypercube construction when the
	// machine exceeds one cluster; 0 means 4, the paper's flagship
	// arrangement (8 cube ports + 4 node ports).
	NodesPerCluster int
	// CentralizedManager places a single object manager on the first
	// host (the Meglos arrangement) instead of replicating managers
	// on every processing node (the VORX arrangement).
	CentralizedManager bool
	// Seed feeds the simulation's deterministic random source.
	Seed int64
	// Shards is the number of parallel simulation shards for
	// BuildSharded: 0 means one shard per topology cluster, 1 a single
	// serial-equivalent shard; the count is clamped to the cluster
	// count. Build ignores it: it is always the one-shard case.
	Shards int
	// Costs overrides the calibrated cost model (nil = defaults).
	Costs *m68k.Costs
	// Comm selects the communication profile. The zero value is the
	// classic stop-and-wait stack, byte-identical to earlier revisions;
	// Pipelined() turns on the windowed fast path at every layer.
	Comm CommProfile
}

// CommProfile names a communication stack configuration: the classic
// stop-and-wait protocols the paper starts from, or the pipelined fast
// path its retrospective argues for (windowed fragments, coalesced
// acks, interrupt batching, multi-slot ports). Every field at its zero
// value leaves the corresponding layer on its classic behaviour.
type CommProfile struct {
	// Window is the channel write window (and the flowctl go-back-N
	// window where a Reliable is built from this profile); <= 1 is
	// classic stop-and-wait.
	Window int
	// OutputDepth is the per-output-port buffer depth K; <= 1 keeps
	// the single hardware slot.
	OutputDepth int
	// Coalesce enables receive-interrupt coalescing on every node;
	// CoalesceHorizon is how long the first delivery of a batch waits
	// for company (0 batches only same-instant arrivals).
	Coalesce        bool
	CoalesceHorizon sim.Duration
}

// Classic is the default profile: every protocol stop-and-waits.
func Classic() CommProfile { return CommProfile{} }

// Pipelined is the evolved profile: an 8-deep write window, 4-slot
// output ports, and adaptive interrupt coalescing (zero horizon: an
// idle node takes the interrupt immediately; arrivals during a busy
// drain chain into the next batch, so fragment trains batch under load
// with no added latency for fine-grain traffic).
func Pipelined() CommProfile {
	return CommProfile{Window: 8, OutputDepth: 4, Coalesce: true}
}

// Name renders the profile for reports.
func (cp CommProfile) Name() string {
	if cp.Window <= 1 && cp.OutputDepth <= 1 && !cp.Coalesce {
		return "classic"
	}
	return "pipelined"
}

// Machine is one attached computer: a host workstation or a processing
// node, with its kernel and communications stack.
type Machine struct {
	Kern  *kern.Node
	IF    *netif.IF
	Chans *channels.Service
	EP    topo.EndpointID
	Host  bool
	Index int // index within its class (host i or node i)
}

// Name returns the machine's name ("host3" or "node17").
func (m *Machine) Name() string { return m.Kern.Name() }

// fleet is a list of machines, hosts first, each class in index
// order. System and Sharded embed one each: a System's covers its own
// kernel's machines, a Sharded's every machine of the installation.
type fleet struct {
	hosts []*Machine
	nodes []*Machine
}

func (f *fleet) add(m *Machine) {
	if m.Host {
		f.hosts = append(f.hosts, m)
	} else {
		f.nodes = append(f.nodes, m)
	}
}

// Hosts returns the host workstations.
func (f *fleet) Hosts() []*Machine { return f.hosts }

// Nodes returns the processing nodes.
func (f *fleet) Nodes() []*Machine { return f.nodes }

// Host returns host i.
func (f *fleet) Host(i int) *Machine { return f.hosts[i] }

// Node returns processing node i.
func (f *fleet) Node(i int) *Machine { return f.nodes[i] }

// Machines returns every machine, hosts first.
func (f *fleet) Machines() []*Machine {
	out := make([]*Machine, 0, len(f.hosts)+len(f.nodes))
	out = append(out, f.hosts...)
	out = append(out, f.nodes...)
	return out
}

// Spawn starts a subprocess on machine m, on m's own kernel, at
// priority prio.
func (f *fleet) Spawn(m *Machine, name string, prio int, body func(sp *kern.Subprocess)) *kern.Subprocess {
	return m.Kern.SpawnSubprocess(name, prio, body)
}

// System is a running HPC/VORX installation on one simulation kernel.
type System struct {
	K     *sim.Kernel
	Costs *m68k.Costs
	Topo  *topo.Topology
	IC    *hpc.Interconnect
	Mgr   *objmgr.Manager
	// Trace is the system-wide event tracer, wired through every layer
	// but created disabled: until Trace.Enable() is called it records
	// nothing and perturbs nothing.
	Trace *trace.Tracer

	fleet
	byEP map[topo.EndpointID]*Machine
	uids map[string]int
}

// NextUID hands out the next per-system sequence number for kind
// ("stub", "dfs", ...). Services derive rendezvous names from these
// uids, and the object manager hashes those names for placement — so
// the counters must be per System, not process-global, for a run to be
// hermetic. Hermetic runs are what keep parallel experiment
// replication byte-identical to the serial suite, and are why the
// replication worker pool needs no synchronization here: each worker
// owns its System outright.
func (s *System) NextUID(kind string) int {
	if s.uids == nil {
		s.uids = map[string]int{}
	}
	n := s.uids[kind]
	s.uids[kind] = n + 1
	return n
}

// Build constructs the system on one serial kernel: the one-shard case
// of the assembly BuildSharded splits. It ignores cfg.Shards.
func Build(cfg Config) (*System, error) {
	sh, err := assemble(cfg, 1)
	if err != nil {
		return nil, err
	}
	return sh.Sys[0], nil
}

// Topology sizes the interconnect for the configured machine: one
// cluster when every endpoint fits its ports, otherwise an incomplete
// hypercube of NodesPerCluster endpoints per cluster.
func (cfg Config) Topology() (*topo.Topology, error) {
	total := cfg.Hosts + cfg.Nodes
	if total <= topo.PortsPerCluster {
		return topo.SingleCluster(total)
	}
	per := cfg.NodesPerCluster
	if per == 0 {
		per = 4
	}
	return topo.IncompleteHypercube((total+per-1)/per, per)
}

// assemble builds the machine over shards simulation kernels (0 = one
// per topology cluster, clamped to the cluster count), each machine on
// the kernel of the shard that owns its cluster. It couples nothing:
// Build takes the one-shard result as is, and BuildSharded joins the
// kernels into a sim.Group.
func assemble(cfg Config, shards int) (*Sharded, error) {
	if cfg.Nodes < 0 || cfg.Hosts < 0 || cfg.Nodes+cfg.Hosts == 0 {
		return nil, fmt.Errorf("core: need at least one machine (hosts=%d nodes=%d)", cfg.Hosts, cfg.Nodes)
	}
	costs := cfg.Costs
	if costs == nil {
		costs = m68k.DefaultCosts()
	}
	tp, err := cfg.Topology()
	if err != nil {
		return nil, err
	}
	if shards == 0 {
		shards = tp.Clusters()
	}
	part := topo.PartitionClusters(tp, shards)
	sh := &Sharded{Part: part, Topo: tp, Costs: costs}

	// One kernel, tracer, and fabric per shard. Every kernel gets the
	// same seed: a kernel's random source feeds only components that
	// ask for randomness explicitly, none of which are in the stack
	// built here, so a split draws nothing the serial build would not.
	for i := 0; i < part.Shards(); i++ {
		k := sim.NewKernel(cfg.Seed)
		tr := trace.New(k) // disabled until a caller opts in
		k.SetProbe(tr)
		ic := hpc.New(k, costs, tp)
		ic.SetTracer(tr)
		sh.Sys = append(sh.Sys, &System{K: k, Costs: costs, Topo: tp, IC: ic, Trace: tr,
			byEP: make(map[topo.EndpointID]*Machine)})
	}

	// Host workstations (SUN 3s) copy faster than the 68020 nodes;
	// everything else is inherited from the calibrated model.
	hostCosts := *costs
	hostCosts.Copy = costs.HostCopy
	hostCosts.KernelCopy = costs.HostCopy

	// Machines are built in global endpoint order, hosts first, each on
	// its owning shard's kernel, so every kernel sees the serial
	// construction order restricted to its own machines.
	build := func(ep topo.EndpointID, host bool, idx int) {
		sys := sh.Sys[part.OfEndpoint(tp, ep)]
		c, class := costs, "node"
		if host {
			c, class = &hostCosts, "host"
		}
		kn := kern.NewNode(sys.K, c, fmt.Sprintf("%s%d", class, idx))
		kn.SetTracer(sys.Trace)
		m := &Machine{Kern: kn, IF: netif.Attach(kn, sys.IC, ep), EP: ep, Host: host, Index: idx}
		sys.byEP[ep] = m
		sys.add(m)
		sh.add(m)
	}
	for i := 0; i < cfg.Hosts; i++ {
		build(topo.EndpointID(i), true, i)
	}
	for i := 0; i < cfg.Nodes; i++ {
		build(topo.EndpointID(cfg.Hosts+i), false, i)
	}

	// Object manager placement: Meglos centralizes all resource
	// management on a single host; VORX replicates the communications
	// object manager onto every processing node. Names hash over this
	// one global list on every shard, and each shard's Manager serves
	// the managers whose interfaces it owns.
	var mgrEPs []topo.EndpointID
	if cfg.CentralizedManager || cfg.Nodes == 0 {
		mgrEPs = []topo.EndpointID{0} // the first machine: host0, or node0 without hosts
	} else {
		for _, n := range sh.nodes {
			mgrEPs = append(mgrEPs, n.EP)
		}
	}
	for _, sys := range sh.Sys {
		ms := sys.Machines()
		ifs := make([]*netif.IF, len(ms))
		for i, m := range ms {
			ifs[i] = m.IF
		}
		sys.Mgr = objmgr.New(ifs, mgrEPs)
		for _, m := range ms {
			m.Chans = channels.NewService(m.IF, sys.Mgr)
		}

		// Apply the communication profile. Classic (the zero value)
		// takes none of these branches, leaving every layer
		// byte-identical to the stop-and-wait stack.
		if cfg.Comm.OutputDepth > 1 {
			sys.IC.SetOutputDepth(cfg.Comm.OutputDepth)
		}
		for _, m := range ms {
			if cfg.Comm.Coalesce {
				m.IF.SetCoalesce(cfg.Comm.CoalesceHorizon)
			}
			if cfg.Comm.Window > 1 {
				m.Chans.SetWindowConfig(channels.WindowConfig{Window: cfg.Comm.Window})
			}
		}
	}
	return sh, nil
}

// ByEndpoint returns the machine at an endpoint, or nil.
func (s *System) ByEndpoint(ep topo.EndpointID) *Machine { return s.byEP[ep] }

// Run drives the simulation until quiescence and returns a
// *sim.DeadlockError if application processes are stuck.
func (s *System) Run() error { return s.K.Run() }

// RunFor advances virtual time by d.
func (s *System) RunFor(d sim.Duration) { s.K.RunFor(d) }

// Shutdown kills all remaining simulated processes.
func (s *System) Shutdown() { s.K.Shutdown() }
