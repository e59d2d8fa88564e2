// Package dfs is the distributed file service the paper's resource
// decentralization implies: "Program downloading, file access, and
// other system services are also spread among the host workstations"
// (§3.2). Files hash by name to a host server — the same distributed-
// hashing idea the object manager uses — and replicate to the next R-1
// hosts by issuing multiple writes, which is exactly how §4.2 says
// LAN-style servers should reach "a few receivers" instead of using
// multicast.
//
// Node processes access files through a Client over channels. A host
// can be marked down; clients fail over to the next replica.
package dfs

import (
	"fmt"
	"hash/fnv"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
)

// OpCost is the host-side fixed cost per file operation beyond the
// per-byte copying.
const OpCost = 350 * sim.Microsecond

// request/reply wire bodies
type req struct {
	op   string // "create", "append", "read"
	name string
	data []byte
}

type rep struct {
	err  string
	data []byte
}

const (
	reqHeader = 64
	repHeader = 48
)

// Service is the distributed file service: one server per host.
type Service struct {
	hosts    []*core.Machine
	replicas int
	uid      int

	files []map[string][]byte
	down  []bool

	// Ops counts operations served per host.
	Ops []int
}

// New starts file servers on the given hosts with the given
// replication factor (clamped to the host count).
func New(sys *core.System, hosts []*core.Machine, replicas int) *Service {
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(hosts) {
		replicas = len(hosts)
	}
	s := &Service{
		hosts: hosts, replicas: replicas, uid: sys.NextUID("dfs"),
		files: make([]map[string][]byte, len(hosts)),
		down:  make([]bool, len(hosts)),
		Ops:   make([]int, len(hosts)),
	}
	for hi, h := range hosts {
		hi, h := hi, h
		s.files[hi] = map[string][]byte{}
		acceptor := sys.Spawn(h, fmt.Sprintf("dfs-accept%d", hi), 0, func(sp *kern.Subprocess) {
			for conn := 0; ; conn++ {
				ch := h.Chans.Open(sp, s.chanName(hi), objmgr.Serve)
				worker := sys.Spawn(h, fmt.Sprintf("dfs%d.%d", hi, conn), 0, func(wsp *kern.Subprocess) {
					s.serve(wsp, hi, h, ch)
				})
				worker.Proc().SetDaemon(true)
			}
		})
		acceptor.Proc().SetDaemon(true)
	}
	return s
}

func (s *Service) chanName(host int) string {
	return fmt.Sprintf("dfs.%d.%d", s.uid, host)
}

// serve handles one client connection on host hi.
func (s *Service) serve(sp *kern.Subprocess, hi int, h *core.Machine, ch *channels.Channel) {
	costs := h.Kern.Costs()
	for {
		m, ok := ch.Read(sp)
		if !ok {
			return
		}
		r := m.Payload.(req)
		if s.down[hi] {
			if ch.Write(sp, repHeader, rep{err: "host unavailable"}) != nil {
				return
			}
			continue
		}
		s.Ops[hi]++
		sp.Compute(OpCost)
		var out rep
		switch r.op {
		case "create":
			if _, exists := s.files[hi][r.name]; exists {
				out.err = "file exists"
			} else {
				s.files[hi][r.name] = nil
			}
		case "append":
			f, exists := s.files[hi][r.name]
			if !exists {
				out.err = "no such file"
			} else {
				sp.Compute(costs.HostCopyTime(len(r.data)))
				s.files[hi][r.name] = append(f, r.data...)
			}
		case "read":
			f, exists := s.files[hi][r.name]
			if !exists {
				out.err = "no such file"
			} else {
				sp.Compute(costs.HostCopyTime(len(f)))
				out.data = append([]byte(nil), f...)
			}
		default:
			out.err = "bad op"
		}
		size := repHeader + len(out.data)
		if ch.Write(sp, size, out) != nil {
			return
		}
	}
}

// ReplicaHosts returns the hosts holding the file, primary first.
func (s *Service) ReplicaHosts(name string) []int {
	h := fnv.New32a()
	h.Write([]byte(name))
	first := int(h.Sum32()) % len(s.hosts)
	out := make([]int, 0, s.replicas)
	for i := 0; i < s.replicas; i++ {
		out = append(out, (first+i)%len(s.hosts))
	}
	return out
}

// SetDown marks a host's server unavailable (true) or back up (false)
// — the failure-injection hook.
func (s *Service) SetDown(host int, down bool) { s.down[host] = down }

// NumHosts returns how many hosts run a file server.
func (s *Service) NumHosts() int { return len(s.hosts) }

// StoredOn reports the file's size on a specific host replica, and
// whether it exists there.
func (s *Service) StoredOn(host int, name string) (int, bool) {
	f, ok := s.files[host][name]
	return len(f), ok
}

// Client is one process's connection set to the file service.
type Client struct {
	s     *Service
	m     *core.Machine
	conns []*channels.Channel
}

// NewClient prepares a client for a process on machine m.
func (s *Service) NewClient(m *core.Machine) *Client {
	return &Client{s: s, m: m, conns: make([]*channels.Channel, len(s.hosts))}
}

func (c *Client) conn(sp *kern.Subprocess, host int) *channels.Channel {
	if c.conns[host] == nil {
		c.conns[host] = c.m.Chans.Open(sp, c.s.chanName(host), objmgr.Connect)
	}
	return c.conns[host]
}

// call performs one request against a specific host.
func (c *Client) call(sp *kern.Subprocess, host int, r req) (rep, error) {
	ch := c.conn(sp, host)
	size := reqHeader + len(r.data)
	if err := ch.Write(sp, size, r); err != nil {
		return rep{}, err
	}
	m, ok := ch.Read(sp)
	if !ok {
		return rep{}, fmt.Errorf("dfs: connection to host %d closed", host)
	}
	return m.Payload.(rep), nil
}

// Create makes the file on every replica (multiple writes — §4.2's
// few-receiver pattern).
func (c *Client) Create(sp *kern.Subprocess, name string) error {
	return c.writeAll(sp, req{op: "create", name: name})
}

// Append appends data on every replica.
func (c *Client) Append(sp *kern.Subprocess, name string, data []byte) error {
	return c.writeAll(sp, req{op: "append", name: name, data: data})
}

// writeAll issues the mutation to all replicas; it fails if any live
// replica rejects it, and tolerates down replicas as long as one
// accepts. A transport error (the host crashed or became unreachable)
// counts as a down replica, not a client failure.
func (c *Client) writeAll(sp *kern.Subprocess, r req) error {
	accepted := 0
	var lastErr error
	for _, host := range c.s.ReplicaHosts(r.name) {
		out, err := c.call(sp, host, r)
		if err != nil {
			lastErr = err
			continue
		}
		switch out.err {
		case "":
			accepted++
		case "host unavailable":
			lastErr = fmt.Errorf("dfs: %s", out.err)
		default:
			return fmt.Errorf("dfs: %s: %s", r.name, out.err)
		}
	}
	if accepted == 0 {
		if lastErr != nil {
			return lastErr
		}
		return fmt.Errorf("dfs: no replica accepted %s", r.op)
	}
	return nil
}

// Read returns the file contents, failing over from a down or crashed
// primary to the other replicas.
func (c *Client) Read(sp *kern.Subprocess, name string) ([]byte, error) {
	var lastErr error
	for _, host := range c.s.ReplicaHosts(name) {
		out, err := c.call(sp, host, req{op: "read", name: name})
		if err != nil {
			lastErr = err
			continue
		}
		if out.err == "" {
			return out.data, nil
		}
		lastErr = fmt.Errorf("dfs: %s: %s", name, out.err)
		if out.err != "host unavailable" {
			return nil, lastErr
		}
	}
	return nil, lastErr
}
