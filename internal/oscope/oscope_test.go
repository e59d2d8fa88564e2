package oscope_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/oscope"
	"hpcvorx/internal/sim"
)

// imbalancedSystem runs a 2-node app where node0 computes for 10 ms
// while node1 waits for input the whole time.
func imbalancedSystem(t testing.TB) (*core.System, *oscope.Scope) {
	t.Helper()
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc := oscope.Attach(sys)
	sys.Spawn(sys.Node(0), "busy", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "result", objmgr.OpenAny)
		sp.Compute(sim.Milliseconds(10))
		ch.Write(sp, 100, nil)
	})
	sys.Spawn(sys.Node(1), "idle", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "result", objmgr.OpenAny)
		ch.Read(sp)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	sc.Finalize()
	return sys, sc
}

func TestUtilizationPartition(t *testing.T) {
	sys, sc := imbalancedSystem(t)
	end := sys.K.Now()
	u0 := sc.Utilization("node0", 0, end)
	u1 := sc.Utilization("node1", 0, end)
	if u0[kern.CatUser] < 0.9 {
		t.Fatalf("node0 user fraction = %.2f, want ~1", u0[kern.CatUser])
	}
	if u1[kern.CatIdleInput] < 0.9 {
		t.Fatalf("node1 idle-input fraction = %.2f (%v)", u1[kern.CatIdleInput], u1)
	}
	// Fractions sum to ~1 on both.
	for name, u := range map[string]map[kern.Category]float64{"node0": u0, "node1": u1} {
		sum := 0.0
		for _, f := range u {
			sum += f
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s fractions sum to %.3f", name, sum)
		}
	}
}

func TestImbalanceDetectsBadLoadBalance(t *testing.T) {
	sys, sc := imbalancedSystem(t)
	if im := sc.Imbalance(0, sys.K.Now()); im < 0.8 {
		t.Fatalf("imbalance = %.2f, want near 1 for this pathological app", im)
	}
}

func TestRenderShowsSynchronizedRows(t *testing.T) {
	sys, sc := imbalancedSystem(t)
	var b strings.Builder
	sc.Render(&b, 0, sys.K.Now(), 40)
	out := b.String()
	if !strings.Contains(out, "node0") || !strings.Contains(out, "node1") {
		t.Fatalf("rows missing:\n%s", out)
	}
	if !strings.Contains(out, "U") {
		t.Fatalf("no user time rendered:\n%s", out)
	}
	if !strings.Contains(out, "i") {
		t.Fatalf("no idle-input rendered:\n%s", out)
	}
	if !strings.Contains(out, "legend:") {
		t.Fatalf("legend missing:\n%s", out)
	}
	// Every node row must have identical width (synchronized graphs).
	var widths []int
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "|") {
			bar := line[strings.Index(line, "|")+1 : strings.LastIndex(line, "|")]
			widths = append(widths, len(bar))
		}
	}
	if len(widths) < 2 || widths[0] != widths[1] {
		t.Fatalf("rows not synchronized: %v", widths)
	}
}

func TestWindowedRender(t *testing.T) {
	_, sc := imbalancedSystem(t)
	var b strings.Builder
	// Zoom into the first millisecond only.
	sc.Render(&b, 0, sim.Time(sim.Milliseconds(1)), 20)
	if !strings.Contains(b.String(), "node0") {
		t.Fatalf("windowed render failed:\n%s", b.String())
	}
	var empty strings.Builder
	sc.Render(&empty, 100, 100, 20)
	if !strings.Contains(empty.String(), "empty window") {
		t.Fatalf("zero window should say so: %s", empty.String())
	}
}

func TestRenderAllCoversWholeRun(t *testing.T) {
	_, sc := imbalancedSystem(t)
	out := sc.String()
	if !strings.Contains(out, "oscope:") {
		t.Fatalf("render-all output:\n%s", out)
	}
}

func TestIdleMixedGlyph(t *testing.T) {
	sys, err := core.Build(core.Config{Nodes: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc := oscope.Attach(sys)
	sys.Spawn(sys.Node(0), "in", 0, func(sp *kern.Subprocess) {
		wake := sp.Block(kern.WaitInput, "in")
		sys.K.After(sim.Milliseconds(5), wake)
		sp.BlockNow()
	})
	sys.Spawn(sys.Node(0), "out", 0, func(sp *kern.Subprocess) {
		wake := sp.Block(kern.WaitOutput, "out")
		sys.K.After(sim.Milliseconds(5), wake)
		sp.BlockNow()
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	sc.Finalize()
	var b strings.Builder
	sc.Render(&b, 0, sys.K.Now(), 30)
	if !strings.Contains(b.String(), "m") {
		t.Fatalf("idle-mixed glyph missing:\n%s", b.String())
	}
}

func TestRenderGroupedFoldsRows(t *testing.T) {
	sys, err := core.Build(core.Config{Nodes: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc := oscope.Attach(sys)
	for i := 0; i < 8; i++ {
		i := i
		sys.Spawn(sys.Node(i), "w", 0, func(sp *kern.Subprocess) {
			sp.Compute(sim.Milliseconds(float64(1 + i)))
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	sc.Finalize()
	var b strings.Builder
	sc.RenderGrouped(&b, 0, sys.K.Now(), 40, 4)
	out := b.String()
	// 8 hosts grouped by 4 -> 2 rows plus header and legend.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "|") {
			rows++
		}
	}
	if rows != 2 {
		t.Fatalf("rows = %d, want 2:\n%s", rows, out)
	}
	if !strings.Contains(out, "node0..node3") {
		t.Fatalf("group label missing:\n%s", out)
	}
	if !strings.Contains(out, "density:") {
		t.Fatalf("legend missing:\n%s", out)
	}
}

func TestDensityRampMonotone(t *testing.T) {
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc := oscope.Attach(sys)
	// node0 busy the whole window, node1 idle.
	sys.Spawn(sys.Node(0), "busy", 0, func(sp *kern.Subprocess) {
		sp.Compute(sim.Milliseconds(10))
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	sc.Finalize()
	var b strings.Builder
	sc.RenderGrouped(&b, 0, sys.K.Now(), 10, 1)
	lines := strings.Split(b.String(), "\n")
	var busyRow, idleRow string
	for _, l := range lines {
		if strings.HasPrefix(l, "node0") {
			busyRow = l
		}
		if strings.HasPrefix(l, "node1") {
			idleRow = l
		}
	}
	if !strings.Contains(busyRow, "@") {
		t.Fatalf("busy row shows no density: %q", busyRow)
	}
	if strings.ContainsAny(idleRow[strings.Index(idleRow, "|"):], "@#*") {
		t.Fatalf("idle row shows density: %q", idleRow)
	}
}

func TestSaveAndLoadRoundTrip(t *testing.T) {
	sys, sc := imbalancedSystem(t)
	var buf strings.Builder
	if err := sc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := oscope.Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	end := sys.K.Now()
	for _, name := range []string{"node0", "node1"} {
		a := sc.Utilization(name, 0, end)
		b := loaded.Utilization(name, 0, end)
		for _, cat := range kern.Categories() {
			if a[cat] != b[cat] {
				t.Fatalf("%s %v: %.4f vs %.4f after round trip", name, cat, a[cat], b[cat])
			}
		}
	}
	// A loaded trace renders identically.
	var r1, r2 strings.Builder
	sc.Render(&r1, 0, end, 30)
	loaded.Render(&r2, 0, end, 30)
	if r1.String() != r2.String() {
		t.Fatalf("render differs after round trip:\n%s\nvs\n%s", r1.String(), r2.String())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := oscope.Load(strings.NewReader("")); err == nil {
		t.Fatal("empty trace should fail")
	}
	if _, err := oscope.Load(strings.NewReader("not-a-trace\n")); err == nil {
		t.Fatal("bad header should fail")
	}
	if _, err := oscope.Load(strings.NewReader("oscope-trace 9 0\n")); err == nil {
		t.Fatal("future version should fail")
	}
	if _, err := oscope.Load(strings.NewReader("oscope-trace 1 1\nnodeX 0 bad 0\n")); err == nil {
		t.Fatal("bad line should fail")
	}
	if _, err := oscope.Load(strings.NewReader("oscope-trace 2 1\nnot an event line\n")); err == nil {
		t.Fatal("bad v2 line should fail")
	}
	if _, err := oscope.Load(strings.NewReader("oscope-trace 2 1\n0 0 10 hop 0 node0 cpu user\n")); err == nil {
		t.Fatal("non-accounting v2 event should fail")
	}
	// v1 carries categories as integers: only kern.Categories() load.
	for _, cat := range []string{"-1", "6", "9"} {
		if _, err := oscope.Load(strings.NewReader("oscope-trace 1 1\nnode0 0 10 " + cat + "\n")); err == nil {
			t.Fatalf("v1 category %s should fail", cat)
		}
	}
}

// FuzzLoad feeds arbitrary bytes to the trace loader, seeded with a
// real Save output and a version-1 sample. No input may panic, every
// accepted trace must render, and a version-2 trace must round-trip
// Save -> Load -> Save byte-identically.
func FuzzLoad(f *testing.F) {
	_, sc := imbalancedSystem(f)
	var saved strings.Builder
	if err := sc.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.String())
	f.Add("oscope-trace 1 2\nnode0 0 1000 0\nnode1 0 400 2\nnode1 400 1000 5\n")
	f.Fuzz(func(t *testing.T, in string) {
		sc, err := oscope.Load(strings.NewReader(in))
		if err != nil {
			return
		}
		sc.RenderAll(io.Discard, 40)
		sc.RenderGrouped(io.Discard, 0, 1000, 40, 2)
		var version int
		fmt.Sscanf(in, "oscope-trace %d", &version) // Load accepted this header
		if version != 2 {
			return
		}
		var first, second strings.Builder
		if err := sc.Save(&first); err != nil {
			t.Fatal(err)
		}
		back, err := oscope.Load(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("saved trace does not load: %v\n%s", err, first.String())
		}
		if err := back.Save(&second); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatalf("save -> load -> save differs:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}

// TestFromTracerMatchesLiveScope checks the unification satellite: the
// KAccount spans the system tracer records reproduce exactly what a
// live-attached oscilloscope saw, and survive a v1 file round trip too.
func TestFromTracerMatchesLiveScope(t *testing.T) {
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.Trace.Enable()
	sc := oscope.Attach(sys)
	sys.Spawn(sys.Node(0), "busy", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(0).Chans.Open(sp, "result", objmgr.OpenAny)
		sp.Compute(sim.Milliseconds(10))
		ch.Write(sp, 100, nil)
	})
	sys.Spawn(sys.Node(1), "idle", 0, func(sp *kern.Subprocess) {
		ch := sys.Node(1).Chans.Open(sp, "result", objmgr.OpenAny)
		ch.Read(sp)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	sc.Finalize() // flushes the open intervals into the tracer too
	end := sys.K.Now()
	from := oscope.FromTracer(sys.Trace)
	var live, replay strings.Builder
	sc.Render(&live, 0, end, 30)
	from.Render(&replay, 0, end, 30)
	if live.String() != replay.String() {
		t.Fatalf("tracer replay differs from live scope:\n%s\nvs\n%s", live.String(), replay.String())
	}
	// The legacy v1 format must stay loadable.
	v1 := "oscope-trace 1 1\nnode9 0 1000 0\n"
	loaded, err := oscope.Load(strings.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Intervals("node9"); len(got) != 1 || got[0].End != sim.Time(1000) {
		t.Fatalf("v1 load: %v", got)
	}
}
