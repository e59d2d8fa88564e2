package resmgr

import (
	"errors"
	"testing"
	"testing/quick"

	"hpcvorx/internal/sim"
)

func TestMeglosRecompileRace(t *testing.T) {
	// Paper §3.1, verbatim scenario: a programmer runs, finishes,
	// recompiles; meanwhile somebody else starts an exclusive app on
	// the remaining processors; the rerun gets "processors not
	// available".
	m := NewMeglos(8)

	app, err := m.StartApp(8, true)
	if err != nil {
		t.Fatal(err)
	}
	m.EndApp(app) // run finished; processors return to the pool

	// While alice recompiles, bob grabs everything exclusively.
	if _, err := m.StartApp(8, true); err != nil {
		t.Fatalf("bob should get the freed processors: %v", err)
	}

	// Alice's rerun fails with the famous diagnostic.
	_, err = m.StartApp(8, true)
	if !errors.Is(err, ErrNotAvailable) {
		t.Fatalf("want %q, got %v", ErrNotAvailable, err)
	}
}

func TestMeglosSharingWithoutExclusive(t *testing.T) {
	m := NewMeglos(2)
	// Up to 15 protected processes share one processor.
	var apps []*MeglosApp
	for i := 0; i < 15; i++ {
		app, err := m.StartApp(1, false)
		if err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
		apps = append(apps, app)
		if app.Nodes[0] != 0 {
			t.Fatalf("app %d placed on %v", i, app.Nodes)
		}
	}
	// 16th process on node 0 is refused; it lands on node 1.
	app, err := m.StartApp(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if app.Nodes[0] != 1 {
		t.Fatalf("16th process placed on %v, want node 1", app.Nodes)
	}
	for _, a := range apps {
		m.EndApp(a)
	}
	if m.FreeProcessors() != 2 {
		t.Fatalf("free = %d", m.FreeProcessors())
	}
}

func TestMeglosExclusiveExcludesSharing(t *testing.T) {
	m := NewMeglos(1)
	if _, err := m.StartApp(1, true); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartApp(1, false); !errors.Is(err, ErrNotAvailable) {
		t.Fatalf("sharing with an exclusive holder should fail, got %v", err)
	}
}

func TestVORXAllocationSurvivesRecompile(t *testing.T) {
	// The VORX fix: processors allocated before the session stay with
	// the user through the whole edit-compile-run loop.
	k := sim.NewKernel(1)
	v := NewVORX(k, 8)
	mine, err := v.Allocate("alice", 8)
	if err != nil {
		t.Fatal(err)
	}
	// Bob cannot take them, during alice's recompile or ever.
	if _, err := v.Allocate("bob", 1); !errors.Is(err, ErrNotAvailable) {
		t.Fatalf("bob should be refused, got %v", err)
	}
	// Alice's rerun uses her own processors.
	if got := v.Owned("alice"); len(got) != 8 {
		t.Fatalf("alice owns %v", got)
	}
	if err := v.Free("alice", mine); err != nil {
		t.Fatal(err)
	}
	if v.FreeProcessors() != 8 {
		t.Fatalf("free = %d", v.FreeProcessors())
	}
}

func TestVORXCannotFreeOthersProcessors(t *testing.T) {
	k := sim.NewKernel(1)
	v := NewVORX(k, 4)
	ids, _ := v.Allocate("alice", 2)
	if err := v.Free("bob", ids); err == nil {
		t.Fatal("bob freeing alice's processors should fail")
	}
	if len(v.Owned("alice")) != 2 {
		t.Fatal("alice's allocation must be intact after failed free")
	}
}

func TestVORXForceFree(t *testing.T) {
	// Users sometimes forget to free processors; the force-free
	// command reclaims them.
	k := sim.NewKernel(1)
	v := NewVORX(k, 4)
	v.Allocate("forgetful", 4)
	if _, err := v.Allocate("needy", 2); !errors.Is(err, ErrNotAvailable) {
		t.Fatalf("pool should be exhausted, got %v", err)
	}
	owners := v.ForceFree([]NodeID{0, 1})
	if len(owners) != 1 || owners[0] != "forgetful" {
		t.Fatalf("owners = %v", owners)
	}
	if _, err := v.Allocate("needy", 2); err != nil {
		t.Fatalf("allocation after force-free: %v", err)
	}
	if v.ForceFrees != 1 {
		t.Fatalf("force-free count = %d", v.ForceFrees)
	}
}

func TestVORXIdleReport(t *testing.T) {
	k := sim.NewKernel(1)
	v := NewVORX(k, 3)
	ids, _ := v.Allocate("u", 2)
	k.After(sim.Seconds(3600), func() {
		v.Use(ids[0]) // processor 0 active after an hour
	})
	k.After(sim.Seconds(7200), func() {
		idle := v.IdleFor(sim.Seconds(5400))
		if len(idle) != 1 || idle[0] != ids[1] {
			t.Errorf("idle = %v, want [%d]", idle, ids[1])
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: under any sequence of VORX allocate/free pairs, ownership
// accounting stays consistent: owned + free == total, and no processor
// has two owners.
func TestVORXAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		k := sim.NewKernel(1)
		const total = 16
		v := NewVORX(k, total)
		users := []string{"a", "b", "c"}
		for _, op := range ops {
			u := users[int(op)%len(users)]
			if op%2 == 0 {
				n := int(op/16)%4 + 1
				if ids, err := v.Allocate(u, n); err == nil {
					for _, id := range ids {
						if v.OwnerOf(id) != u {
							return false
						}
					}
				}
			} else {
				owned := v.Owned(u)
				if len(owned) > 0 {
					if err := v.Free(u, owned[:1+int(op/16)%len(owned)]); err != nil {
						return false
					}
				}
			}
			sum := v.FreeProcessors()
			for _, u := range users {
				sum += len(v.Owned(u))
			}
			if sum != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoReclaimIsObjectionable(t *testing.T) {
	// The property that made the paper reject automatic reclamation:
	// a user who is debugging — allocated, but idle while reading
	// code — silently loses processors mid-session.
	k := sim.NewKernel(1)
	v := NewVORX(k, 4)
	ids, _ := v.Allocate("thinker", 4)
	k.After(sim.Seconds(7200), func() {
		// Two hours of reading the source, no runs.
		reclaimed := v.AutoReclaim(sim.Seconds(3600))
		if len(reclaimed) != 4 {
			t.Errorf("reclaimed %v", reclaimed)
		}
		// The user's next run now fails even though nobody else
		// needed the processors.
		if got := v.Owned("thinker"); len(got) != 0 {
			t.Errorf("thinker still owns %v", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	_ = ids
}

func TestAutoReclaimSparesActiveUsers(t *testing.T) {
	k := sim.NewKernel(1)
	v := NewVORX(k, 2)
	ids, _ := v.Allocate("active", 2)
	k.After(sim.Seconds(3000), func() { v.Use(ids[0]); v.Use(ids[1]) })
	k.After(sim.Seconds(5000), func() {
		if got := v.AutoReclaim(sim.Seconds(3600)); len(got) != 0 {
			t.Errorf("reclaimed active user's processors: %v", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
