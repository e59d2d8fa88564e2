package stub

import (
	"fmt"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
)

// SyscallPool is the decentralized system-call scheme paper §3.3
// closes with: "a better solution ... that will alleviate the
// bottleneck of using a single host for all the system calls of an
// application. It uses a decentralized scheme that distributes the
// overhead of system calls by allowing a process to direct system
// calls to any of the host workstations."
//
// Each participating host runs a syscall server; a node process
// spreads its calls across all of them round-robin (or pins a host
// explicitly), opening one channel per (process, host) lazily.
type SyscallPool struct {
	hosts []*core.Machine
	uid   int

	// Served counts syscalls executed per host (load distribution).
	Served []int
}

// NewSyscallPool starts a syscall server on each host. Servers are
// daemons: they accept connections and serve forever.
func NewSyscallPool(sys *core.System, hosts []*core.Machine) *SyscallPool {
	p := &SyscallPool{hosts: hosts, uid: sys.NextUID("stub"), Served: make([]int, len(hosts))}
	for hi, h := range hosts {
		hi, h := hi, h
		acceptor := sys.Spawn(h, fmt.Sprintf("scpool-accept%d", hi), 0, func(sp *kern.Subprocess) {
			for connID := 0; ; connID++ {
				ch := h.Chans.Open(sp, p.name(hi), objmgr.Serve)
				connID := connID
				worker := sys.Spawn(h, fmt.Sprintf("scpool%d.%d", hi, connID), 0, func(wsp *kern.Subprocess) {
					for {
						m, ok := ch.Read(wsp)
						if !ok {
							return
						}
						req := m.Payload.(scReq)
						wsp.Compute(h.Kern.Costs().HostSyscall)
						if req.kind == "block" {
							wsp.SleepFor(req.dur)
						} else {
							wsp.Compute(req.dur)
						}
						p.Served[hi]++
						if ch.Write(wsp, repBytes, scRep{}) != nil {
							return
						}
					}
				})
				worker.Proc().SetDaemon(true)
			}
		})
		acceptor.Proc().SetDaemon(true)
	}
	return p
}

func (p *SyscallPool) name(host int) string {
	return fmt.Sprintf("scpool.%d.%d", p.uid, host)
}

// Client is one node process's connection state to the pool.
type Client struct {
	pool  *SyscallPool
	m     *core.Machine
	chans []*channels.Channel
	next  int
}

// NewClient prepares a pool client for a process on machine m.
func (p *SyscallPool) NewClient(m *core.Machine) *Client {
	return &Client{pool: p, m: m, chans: make([]*channels.Channel, len(p.hosts))}
}

// Syscall directs one forwarded call to the next host round-robin —
// spreading the application's system-call overhead over every
// workstation instead of centralizing it.
func (c *Client) Syscall(sp *kern.Subprocess, kind string, dur sim.Duration) error {
	return c.SyscallOn(sp, c.pickHost(), kind, dur)
}

func (c *Client) pickHost() int {
	h := c.next
	c.next = (c.next + 1) % len(c.pool.hosts)
	return h
}

// SyscallOn directs one call to a specific host.
func (c *Client) SyscallOn(sp *kern.Subprocess, host int, kind string, dur sim.Duration) error {
	if host < 0 || host >= len(c.pool.hosts) {
		return fmt.Errorf("stub: pool has no host %d", host)
	}
	if c.chans[host] == nil {
		c.chans[host] = c.m.Chans.Open(sp, c.pool.name(host), objmgr.Connect)
	}
	ch := c.chans[host]
	if err := ch.Write(sp, reqBytes, scReq{kind: kind, dur: dur}); err != nil {
		return err
	}
	if _, ok := ch.Read(sp); !ok {
		return fmt.Errorf("stub: pool channel closed")
	}
	return nil
}
