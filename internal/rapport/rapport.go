// Package rapport is the multimedia conferencing substrate the paper
// opens with: "Applications implemented on HPC/VORX range from the
// Rapport multimedia conferencing system to several circuit
// simulators" (§1). HPC/VORX made it possible because workstations
// get the same high-performance communications as the node pool —
// "real-time video and high-fidelity audio transmission between
// conferees".
//
// A Conference runs its mixer on a processing node. Conferees on host
// workstations Join dynamically over channels; every frame period the
// mixer combines the uplinks it has and distributes the mix to each
// member with multiple writes (§4.2's pattern for few receivers).
// Members can Leave at any time; late joiners start receiving from
// the next mix.
package rapport

import (
	"fmt"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
)

// Frame parameters: 8 kHz µ-law audio in frame-period packets.
const (
	// FrameBytes is one audio frame's payload.
	FrameBytes = 512
	// ctlBytes is a control message's wire size.
	ctlBytes = 48
)

// FramePeriod is the real-time frame cadence.
const FramePeriod = 64 * sim.Millisecond

// MixPerByte is the mixer's per-byte cost to sum one conferee's frame
// into the mix.
const MixPerByte = 280 * sim.Nanosecond

type joinMsg struct{ id int }
type leaveMsg struct{}

// Frame is a mixed audio frame delivered to a member.
type Frame struct {
	Seq     int
	Sources int // conferee frames mixed in
}

// Conference is a running conference.
type Conference struct {
	name string

	members map[int]*session
	nextID  int

	// Mixed counts frames produced; PeakMembers tracks the largest
	// simultaneous membership.
	Mixed       int
	PeakMembers int
}

// session is the mixer-side state for one conferee.
type session struct {
	up, down *channels.Channel
	// latest uplink frame for the current period, if any
	have bool
	gone bool
}

// New starts a conference mixer on the given processing node. The
// name is the rendezvous prefix conferees Join with.
func New(sys *core.System, node *core.Machine, name string) *Conference {
	c := &Conference{name: name, members: map[int]*session{}}

	// Control subprocess: admits joiners forever (Serve reuse, §4).
	ctl := sys.Spawn(node, "rapport-ctl", 1, func(sp *kern.Subprocess) {
		for {
			ch := node.Chans.Open(sp, c.ctlName(), objmgr.Serve)
			m, ok := ch.Read(sp)
			if !ok {
				return
			}
			_ = m
			id := c.nextID
			c.nextID++
			if ch.Write(sp, ctlBytes, joinMsg{id: id}) != nil {
				return
			}
			// Media channels for this member.
			s := &session{}
			s.up = node.Chans.Open(sp, c.upName(id), objmgr.Serve)
			s.down = node.Chans.Open(sp, c.downName(id), objmgr.Serve)
			c.members[id] = s
			if len(c.members) > c.PeakMembers {
				c.PeakMembers = len(c.members)
			}
			// Per-member pump: drains the uplink into the mix slot.
			pump := sys.Spawn(node, fmt.Sprintf("rapport-pump%d", id), 1, func(psp *kern.Subprocess) {
				for {
					m, ok := s.up.Read(psp)
					if !ok {
						return
					}
					if _, isLeave := m.Payload.(leaveMsg); isLeave {
						s.gone = true
						return
					}
					s.have = true
				}
			})
			pump.Proc().SetDaemon(true)
		}
	})
	ctl.Proc().SetDaemon(true)

	// The mixer: every frame period, mix whatever arrived and send it
	// to every member — multiple writes, not multicast, because the
	// receiver set is small and dynamic.
	mixer := sys.Spawn(node, "rapport-mixer", 1, func(sp *kern.Subprocess) {
		for seq := 0; ; seq++ {
			sp.SleepFor(FramePeriod)
			sources := 0
			for id, s := range c.members {
				if s.gone {
					delete(c.members, id)
					continue
				}
				if s.have {
					sources++
					s.have = false
					sp.Compute(sim.Duration(FrameBytes) * MixPerByte)
				}
			}
			if sources == 0 {
				continue
			}
			c.Mixed++
			for _, s := range sortedSessions(c.members) {
				if err := s.down.Write(sp, FrameBytes, Frame{Seq: seq, Sources: sources}); err != nil {
					s.gone = true
				}
			}
		}
	})
	mixer.Proc().SetDaemon(true)
	return c
}

// sortedSessions returns sessions in id order for determinism.
func sortedSessions(m map[int]*session) []*session {
	max := -1
	for id := range m {
		if id > max {
			max = id
		}
	}
	out := make([]*session, 0, len(m))
	for id := 0; id <= max; id++ {
		if s, ok := m[id]; ok {
			out = append(out, s)
		}
	}
	return out
}

func (c *Conference) ctlName() string        { return c.name + ".ctl" }
func (c *Conference) upName(id int) string   { return fmt.Sprintf("%s.up.%d", c.name, id) }
func (c *Conference) downName(id int) string { return fmt.Sprintf("%s.dn.%d", c.name, id) }

// Members returns the current membership count.
func (c *Conference) Members() int { return len(c.members) }

// Member is a conferee's handle.
type Member struct {
	id       int
	up, down *channels.Channel
	left     bool
}

// Join admits a conferee running on machine m (typically a host
// workstation). Blocks until the mixer accepts.
func (c *Conference) Join(sp *kern.Subprocess, m *core.Machine) (*Member, error) {
	ctl := m.Chans.Open(sp, c.ctlName(), objmgr.Connect)
	if err := ctl.Write(sp, ctlBytes, "join"); err != nil {
		return nil, err
	}
	rep, ok := ctl.Read(sp)
	if !ok {
		return nil, fmt.Errorf("rapport: join refused")
	}
	id := rep.Payload.(joinMsg).id
	mem := &Member{id: id}
	mem.up = m.Chans.Open(sp, c.upName(id), objmgr.Connect)
	mem.down = m.Chans.Open(sp, c.downName(id), objmgr.Connect)
	ctl.Close(sp)
	return mem, nil
}

// ID returns the member's conference id.
func (mem *Member) ID() int { return mem.id }

// Speak sends one captured audio frame to the mixer.
func (mem *Member) Speak(sp *kern.Subprocess) error {
	if mem.left {
		return fmt.Errorf("rapport: member %d left", mem.id)
	}
	return mem.up.Write(sp, FrameBytes, fmt.Sprintf("voice-%d", mem.id))
}

// Listen blocks until the next mixed frame arrives.
func (mem *Member) Listen(sp *kern.Subprocess) (Frame, error) {
	m, ok := mem.down.Read(sp)
	if !ok {
		return Frame{}, fmt.Errorf("rapport: downlink closed")
	}
	return m.Payload.(Frame), nil
}

// Leave exits the conference.
func (mem *Member) Leave(sp *kern.Subprocess) {
	if mem.left {
		return
	}
	mem.left = true
	mem.up.Write(sp, ctlBytes, leaveMsg{})
}
