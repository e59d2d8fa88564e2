package obs_test

import (
	"strings"
	"testing"

	"hpcvorx/internal/core"
	"hpcvorx/internal/hpc"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/obs"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/trace"
)

func svcEvent(svc string, size string) trace.Event {
	return trace.Event{Kind: trace.KService, Node: "node1", Lane: "svc/" + svc, Detail: size + "B from 0"}
}

// TestTrafficTable: the sink counts KService events and their bytes
// per service, orders rows by bytes with ties broken by name, and
// ignores every other event.
func TestTrafficTable(t *testing.T) {
	var tr obs.Traffic
	for _, e := range []trace.Event{
		svcEvent("svcA", "100"),
		svcEvent("svcB", "50"),
		svcEvent("svcA", "200"),
		svcEvent("svcC", "300"), // ties svcA on bytes; sorts after it
		{Kind: trace.KDeliver, Node: "fabric", Lane: "svc/svcB", Detail: "999B from 0"},
		{Kind: trace.KService, Node: "node1", Lane: "cpu", Detail: "999B from 0"},
		{Kind: trace.KAccount, Node: "node1", Lane: "cpu", Detail: "user"},
	} {
		tr.TraceEvent(e)
	}
	var b strings.Builder
	tr.WriteTable(&b)
	want := "" +
		"msgtrace: 4 messages\n" +
		"SERVICE              MESSAGES        BYTES\n" +
		"svcA                        2          300\n" +
		"svcC                        1          300\n" +
		"svcB                        1           50\n"
	if b.String() != want {
		t.Fatalf("table:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestTrafficCountsNetifDeliveries: on a live run the sink sees every
// envelope netif hands to a registered service, with its size, even
// when the tracer's ring keeps only the newest two events.
func TestTrafficCountsNetifDeliveries(t *testing.T) {
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var tr obs.Traffic
	sys.Trace.Enable()
	sys.Trace.SetLimit(2)
	sys.Trace.SetForward(&tr)
	dst := sys.Node(1)
	for _, svc := range []string{"svcA", "svcB"} {
		dst.IF.Register(svc, netif.Service{
			Cost:   func(*hpc.Message) sim.Duration { return 0 },
			Handle: func(*hpc.Message) {},
		})
	}
	src := sys.Node(0).IF
	src.SendAsync(dst.EP, "svcA", 100, nil, nil)
	src.SendAsync(dst.EP, "svcA", 200, nil, nil)
	src.SendAsync(dst.EP, "svcB", 50, nil, nil)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	tr.WriteTable(&b)
	want := "" +
		"msgtrace: 3 messages\n" +
		"SERVICE              MESSAGES        BYTES\n" +
		"svcA                        2          300\n" +
		"svcB                        1           50\n"
	if b.String() != want {
		t.Fatalf("table:\n%s\nwant:\n%s", b.String(), want)
	}
}
