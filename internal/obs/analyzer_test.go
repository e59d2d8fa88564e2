package obs_test

// Full-stack guarantees of the latency observatory: (1) for every
// traced write the component attribution sums exactly to its observed
// end-to-end virtual-time latency, across clean streams, pipelined
// windows, busy-stall congestion, and crash+migration recovery;
// (2) analyzing live through the forward sink and replaying a
// flight-recorder dump produce identical reports; (3) attaching the
// analyzer/sampler perturbs nothing — the simulation and its trace
// are byte-identical with and without them.

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"hpcvorx/internal/core"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/obs"
	"hpcvorx/internal/resmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/super"
	"hpcvorx/internal/trace"
	"hpcvorx/internal/workload"
)

// tracedStream runs the 64×8KB stream with tracing plus a live
// analyzer and sampler attached, returning everything a test needs.
func tracedStream(t *testing.T, cp core.CommProfile) (*core.System, *obs.Analyzer, *obs.Sampler, sim.Duration) {
	t.Helper()
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1, Comm: cp})
	if err != nil {
		t.Fatal(err)
	}
	sys.Trace.Enable()
	an := obs.NewAnalyzer()
	smp := obs.NewSampler(sys.Trace.Metrics(), 200*sim.Microsecond)
	sys.Trace.SetForward(obs.Tee(an, smp))
	mk := workload.Stream(sys, 8192, 64)
	smp.Flush(sys.K.Now())
	return sys, an, smp, mk
}

func checkExact(t *testing.T, rep *obs.Report) {
	t.Helper()
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamAttributionExact(t *testing.T) {
	_, an, smp, _ := tracedStream(t, core.Classic())
	rep := an.Report()
	checkExact(t, rep)
	if got := rep.CompleteWrites(); got != 64 {
		t.Fatalf("complete writes = %d, want 64 (incomplete %d)", got, rep.Incomplete)
	}
	if rep.CompTotal[obs.CompWire] <= 0 || rep.CompTotal[obs.CompInterrupt] <= 0 {
		t.Fatalf("wire/interrupt components empty: %+v", rep.CompTotal)
	}
	for _, w := range rep.Writes {
		if w.Frags < 1 || w.Hops < w.Frags {
			t.Fatalf("tid %d: frags=%d hops=%d", w.TID, w.Frags, w.Hops)
		}
		if w.Busies != 0 || w.Rexmits != 0 || w.Comp[obs.CompMigration] != 0 {
			t.Fatalf("clean stream shows recovery components: %+v", w)
		}
	}
	if smp.Len() == 0 {
		t.Fatal("sampler recorded no series points")
	}
	for _, tc := range []struct{ n, want int }{{-1, 0}, {0, 0}, {3, 3}, {100, 64}} {
		if got := len(rep.TopN(tc.n)); got != tc.want {
			t.Fatalf("TopN(%d) returned %d writes, want %d", tc.n, got, tc.want)
		}
	}
	// p50 <= p99 <= p999 and all within [0, max total].
	p50 := rep.Quantile("end_to_end", 0.50)
	p99 := rep.Quantile("end_to_end", 0.99)
	p999 := rep.Quantile("end_to_end", 0.999)
	if !(p50 > 0 && p50 <= p99 && p99 <= p999) {
		t.Fatalf("quantiles not monotonic: %v %v %v", p50, p99, p999)
	}
}

func TestPipelinedAttributionExact(t *testing.T) {
	_, anC, _, mkC := tracedStream(t, core.Classic())
	_, anP, _, mkP := tracedStream(t, core.Pipelined())
	repC, repP := anC.Report(), anP.Report()
	checkExact(t, repC)
	checkExact(t, repP)
	if mkP >= mkC {
		t.Fatalf("pipelined makespan %v not faster than classic %v", mkP, mkC)
	}
	if repP.CompleteWrites() != 64 || repC.CompleteWrites() != 64 {
		t.Fatalf("complete: classic %d pipelined %d", repC.CompleteWrites(), repP.CompleteWrites())
	}
}

func TestManyToOneAttributionExact(t *testing.T) {
	sys, err := core.Build(core.Config{Nodes: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sys.Trace.Enable()
	an := obs.NewAnalyzer()
	sys.Trace.SetForward(an)
	workload.ManyToOne(sys, 800, 10)
	rep := an.Report()
	checkExact(t, rep)
	if rep.CompleteWrites() != 190 {
		t.Fatalf("complete writes = %d, want 190", rep.CompleteWrites())
	}
	var busies int
	for _, w := range rep.Writes {
		busies += w.Busies
	}
	if busies > 0 && rep.CompTotal[obs.CompBusy] == 0 {
		t.Fatalf("%d busy refusals but zero busy-stall attribution", busies)
	}
	t.Logf("many-to-one: %d busies, busy share %.1f%%, queue share %.1f%%",
		busies, 100*rep.Share(obs.CompBusy), 100*rep.Share(obs.CompQueue))
}

// --- crash + migration scenario (mirrors trace's heal test) ---

type healState struct {
	read    int
	written int
	log     []string
}

func (hs *healState) Checkpoint() ([]byte, map[string]super.Mark) {
	return []byte(fmt.Sprintf("%d|%d|%s", hs.read, hs.written, strings.Join(hs.log, ","))),
		map[string]super.Mark{"pipe": {Read: hs.read, Written: hs.written}}
}

func restoreHealState(b []byte) *healState {
	hs := &healState{}
	if len(b) == 0 {
		return hs
	}
	parts := strings.SplitN(string(b), "|", 3)
	hs.read, _ = strconv.Atoi(parts[0])
	hs.written, _ = strconv.Atoi(parts[1])
	if parts[2] != "" {
		hs.log = strings.Split(parts[2], ",")
	}
	return hs
}

func runHeal(t *testing.T, n int, attach trace.Sink) *core.System {
	t.Helper()
	sys, err := core.Build(core.Config{Hosts: 1, Nodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.Trace.Enable()
	if attach != nil {
		sys.Trace.SetForward(attach)
	}
	res := resmgr.NewVORX(sys.K, len(sys.Nodes()))
	if _, err := res.Allocate("app", 2); err != nil {
		t.Fatal(err)
	}
	sup := super.New(sys, sys.Host(0), res, super.Config{
		HeartbeatEvery:  500 * sim.Microsecond,
		ConfirmAfter:    2 * sim.Millisecond,
		CheckpointEvery: 1 * sim.Millisecond,
	})
	eng := fault.New(sys.K, 7)
	eng.Bind(sys)
	eng.BindResmgr(res)
	eng.SetOracle(false)
	if err := eng.Apply([]fault.Op{{At: 2 * sim.Millisecond, Kind: "crash", Args: []string{"node1"}}}); err != nil {
		t.Fatal(err)
	}

	var final []string
	writer := sup.NewTask("writer", sys.Node(0), 0, nil)
	reader := sup.NewTask("reader", sys.Node(1), 0, nil)
	writer.SetBody(func(sp *kern.Subprocess, inc *super.Incarnation) {
		hs := restoreHealState(inc.State)
		ch := inc.Chan("pipe")
		if ch == nil {
			ch = inc.Machine.Chans.Open(sp, "pipe", objmgr.OpenAny)
			writer.Attach(ch)
		}
		writer.SetCheckpointer(hs)
		for hs.written < n {
			if err := ch.Write(sp, 128, fmt.Sprintf("m%d", hs.written)); err != nil {
				return
			}
			hs.written++
			sp.SleepFor(300 * sim.Microsecond)
		}
	})
	reader.SetBody(func(sp *kern.Subprocess, inc *super.Incarnation) {
		hs := restoreHealState(inc.State)
		ch := inc.Chan("pipe")
		if ch == nil {
			ch = inc.Machine.Chans.Open(sp, "pipe", objmgr.OpenAny)
			reader.Attach(ch)
		}
		reader.SetCheckpointer(hs)
		for hs.read < n {
			m, ok := ch.Read(sp)
			if !ok {
				return
			}
			hs.log = append(hs.log, m.Payload.(string))
			hs.read++
		}
		final = hs.log
	})
	writer.Launch()
	reader.Launch()
	sup.Start()
	sup.StopAt(60 * sim.Millisecond)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(final) != n {
		t.Fatalf("reader finished with %d/%d messages", len(final), n)
	}
	return sys
}

func TestHealAttributionSeesOutageAndReplay(t *testing.T) {
	an := obs.NewAnalyzer()
	runHeal(t, 20, an)
	rep := an.Report()
	checkExact(t, rep)
	recovery := rep.CompTotal[obs.CompMigration] + rep.CompTotal[obs.CompRetransmit] + rep.CompTotal[obs.CompBusy]
	if recovery == 0 {
		t.Fatal("crash+migration run attributed zero recovery time")
	}
	var straddlers int
	for _, w := range rep.Writes {
		if w.Complete && (w.Comp[obs.CompMigration] > 0 || w.Rexmits > 0) {
			straddlers++
		}
	}
	if straddlers == 0 {
		t.Fatal("no write shows migration gap or replay despite mid-stream crash")
	}
	t.Logf("heal: %d/%d writes straddle the outage; migration %v, retransmit %v",
		straddlers, len(rep.Writes), rep.CompTotal[obs.CompMigration], rep.CompTotal[obs.CompRetransmit])
}

func TestLiveAnalysisEqualsFlightReplay(t *testing.T) {
	sys, live, _, _ := tracedStream(t, core.Pipelined())
	var buf bytes.Buffer
	if err := sys.Trace.WriteFlight(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadFlight(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replayed := obs.Analyze(events)
	liveRep := live.Report()
	checkExact(t, replayed)

	if len(liveRep.Writes) != len(replayed.Writes) {
		t.Fatalf("writes: live %d, replay %d", len(liveRep.Writes), len(replayed.Writes))
	}
	for i := range liveRep.Writes {
		if liveRep.Writes[i] != replayed.Writes[i] {
			t.Fatalf("write %d differs:\nlive   %+v\nreplay %+v", i, liveRep.Writes[i], replayed.Writes[i])
		}
	}
	var a, b bytes.Buffer
	liveRep.WriteTable(&a)
	replayed.WriteTable(&b)
	if a.String() != b.String() {
		t.Fatalf("report tables differ:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestObservatoryDoesNotPerturb is the PR's acceptance gate: the same
// seed with and without the analyzer+sampler attached must quiesce at
// the same virtual instant, produce the same makespan, and emit a
// byte-identical flight recording.
func TestObservatoryDoesNotPerturb(t *testing.T) {
	plainSys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plainSys.Trace.Enable()
	plainMk := workload.Stream(plainSys, 8192, 64)

	obsSys, _, _, obsMk := tracedStream(t, core.Classic())

	if plainMk != obsMk || plainSys.K.Now() != obsSys.K.Now() {
		t.Fatalf("observatory perturbed the run: makespan %v vs %v, quiesce %v vs %v",
			plainMk, obsMk, plainSys.K.Now(), obsSys.K.Now())
	}
	var fa, fb bytes.Buffer
	if err := plainSys.Trace.WriteFlight(&fa); err != nil {
		t.Fatal(err)
	}
	if err := obsSys.Trace.WriteFlight(&fb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fa.Bytes(), fb.Bytes()) {
		t.Fatal("flight recordings differ with analyzer attached")
	}

	// And against a fully untraced run.
	bareSys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bareMk := workload.Stream(bareSys, 8192, 64)
	if bareMk != obsMk || bareSys.K.Now() != obsSys.K.Now() {
		t.Fatalf("tracing+analysis perturbed vs untraced: %v vs %v", bareMk, obsMk)
	}
}

func TestReportsAreDeterministic(t *testing.T) {
	_, an1, smp1, _ := tracedStream(t, core.Pipelined())
	_, an2, smp2, _ := tracedStream(t, core.Pipelined())
	var a, b bytes.Buffer
	an1.Report().WriteTable(&a)
	an1.Report().WriteTop(&a, 5)
	if err := smp1.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	an2.Report().WriteTable(&b)
	an2.Report().WriteTop(&b, 5)
	if err := smp2.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("double-run analyze output differs")
	}
}
