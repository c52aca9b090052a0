package orca

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/faults"
	"albatross/internal/netsim"
	"albatross/internal/sim"
)

// buildFaulty builds a multi-cluster runtime with a seeded fault injector
// and the reliability layer enabled.
func buildFaulty(t *testing.T, clusters, npc int, seqr Sequencer, plan faults.Plan, cfg RelConfig) (*sim.Engine, *netsim.Network, *RTS, *faults.Injector) {
	t.Helper()
	e, net, rts := build(clusters, npc, seqr)
	in, err := faults.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	net.SetFaultPolicy(in)
	rts.EnableReliability(cfg)
	return e, net, rts, in
}

func TestRPCAtMostOnceUnderDrop(t *testing.T) {
	// Cross-cluster RPCs over a 20% lossy WAN: every call must return the
	// right answer, and every operation must execute exactly once even
	// though requests and replies are retransmitted.
	plan := faults.Plan{Seed: 11, Default: faults.PairProbs{Drop: 0.2}}
	e, _, rts, in := buildFaulty(t, 2, 2, nil, plan, RelConfig{})
	executions := 0
	countingInc := Op{Name: "inc", ArgBytes: 8, ResBytes: 8,
		Apply: func(s any) any { c := s.(*counter); executions++; c.n++; return c.n }}
	obj := rts.NewObject("c", 0, &counter{})
	const calls = 60
	var results []int
	e.Go("caller", func(p *sim.Proc) {
		for i := 0; i < calls; i++ {
			// Node 2 lives in cluster 1; the object's owner in cluster 0.
			results = append(results, obj.Invoke(p, 2, countingInc).(int))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if executions != calls {
		t.Fatalf("operation executed %d times for %d calls (at-most-once violated)", executions, calls)
	}
	for i, res := range results {
		if res != i+1 {
			t.Fatalf("call %d returned %d, want %d", i, res, i+1)
		}
	}
	if c := in.Counters(); c.Drops == 0 {
		t.Fatal("plan injected no drops; test proved nothing")
	}
	if s := rts.RelStats(); s.Retransmits == 0 || s.DupDropped == 0 {
		t.Fatalf("expected retransmits and duplicate suppressions, got %+v", s)
	}
}

func TestDataInOrderUnderReorderAndDuplication(t *testing.T) {
	// Tagged data across the WAN under loss: the gaps losses leave make
	// later envelopes arrive out of order, and retransmissions whose acks
	// were lost arrive twice. The receiver must see exactly the sent
	// stream, in send order.
	plan := faults.Plan{Seed: 5, Default: faults.PairProbs{Drop: 0.2}}
	e, _, rts, in := buildFaulty(t, 2, 2, nil, plan, RelConfig{})
	tag := rts.InternTag(Tag{Op: "stream"})
	const k = 80
	for i := 0; i < k; i++ {
		rts.SendDataID(0, 3, tag, 64, i)
	}
	var got []int
	e.Go("recv", func(p *sim.Proc) {
		for i := 0; i < k; i++ {
			got = append(got, rts.RecvDataID(p, 3, tag).(int))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d carried payload %d: order or integrity lost", i, v)
		}
	}
	if c := in.Counters(); c.Drops == 0 {
		t.Fatalf("plan injected nothing: %+v", c)
	}
	if s := rts.RelStats(); s.DupDropped == 0 || s.OutOfOrder == 0 {
		t.Fatalf("no duplicates suppressed or gaps held: %+v", s)
	}
}

func TestReplicatedWritesSurviveTokenLoss(t *testing.T) {
	// The rotating sequencer's token crosses the WAN as a control message;
	// under loss the reliability layer must detect and retransmit it, or the
	// whole broadcast protocol wedges.
	plan := faults.Plan{Seed: 23, Default: faults.PairProbs{Drop: 0.25}}
	e, _, rts, _ := buildFaulty(t, 3, 2, NewRotatingSequencer(), plan, RelConfig{})
	obj := rts.NewReplicated("c", func(cluster.NodeID) any { return &counter{} })
	const writes = 5
	for c := 0; c < 3; c++ {
		node := cluster.NodeID(c * 2)
		e.Go("writer", func(p *sim.Proc) {
			for i := 0; i < writes; i++ {
				obj.Invoke(p, node, incOp(1))
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Every replica must have applied all 15 writes in the same total order.
	for id := 0; id < 6; id++ {
		if n := obj.Replica(cluster.NodeID(id)).(*counter).n; n != 3*writes {
			t.Fatalf("replica %d has %d, want %d", id, n, 3*writes)
		}
	}
}

// stallsUntilDeadline pins the retry-forever contract on a link that never
// delivers: the sender keeps retransmitting and the run ends at its deadline
// with a DeadlineError (reachable via errors.As) naming the parked caller.
func stallsUntilDeadline(t *testing.T, plan faults.Plan) *netsim.Network {
	t.Helper()
	e, net, rts, _ := buildFaulty(t, 2, 2, nil, plan, RelConfig{})
	obj := rts.NewObject("c", 0, &counter{})
	e.Go("caller", func(p *sim.Proc) {
		obj.Invoke(p, 2, incOp(1))
	})
	e.SetDeadline(time.Second)
	err := e.Run()
	var dl *sim.DeadlineError
	if !errors.As(err, &dl) {
		t.Fatalf("run returned %v, want DeadlineError", err)
	}
	if len(dl.Parked) != 1 || !strings.Contains(dl.Parked[0], "caller") {
		t.Fatalf("deadline report %q does not name the stuck caller", dl.Parked)
	}
	if s := rts.RelStats(); s.Retransmits == 0 {
		t.Fatalf("sender stopped retransmitting: %+v", s)
	}
	return net
}

// TestGiveUpStallsWithDiagnosis: a channel on a link that drops every WAN
// message never gives up; the run stalls and the deadline names the caller.
func TestGiveUpStallsWithDiagnosis(t *testing.T) {
	stallsUntilDeadline(t, faults.Plan{Default: faults.PairProbs{Drop: 1}})
}

// TestDeadlineNamesStalledChannelUnderPartition: across a permanent cut the
// deadline names the stalled caller, and the retransmissions are parked at
// the cut gateway (the 2s hold timeout lies beyond this run's deadline, so
// they are held, not yet dropped — ageing-out is pinned by the netsim suite).
func TestDeadlineNamesStalledChannelUnderPartition(t *testing.T) {
	net := stallsUntilDeadline(t, faults.Plan{LinkDowns: []faults.LinkDown{
		{From: 0, To: 1, Duration: time.Hour},
		{From: 1, To: 0, Duration: time.Hour},
	}})
	if net.Stats().HeldMsgs() == 0 {
		t.Fatal("no traffic was held at the partitioned gateway")
	}
}

func TestStallWithoutReliability(t *testing.T) {
	// The acceptance scenario: drops with retries disabled yield a
	// DeadlockError naming the parked procs instead of a hang.
	e, net, rts := build(2, 2, nil)
	net.SetFaultPolicy(faults.MustInjector(faults.Plan{Default: faults.PairProbs{Drop: 1}}))
	obj := rts.NewObject("c", 0, &counter{})
	e.Go("victim", func(p *sim.Proc) {
		obj.Invoke(p, 2, incOp(1))
	})
	err := e.Run()
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("run returned %v, want DeadlockError", err)
	}
	if len(dl.Parked) != 1 || !strings.Contains(dl.Parked[0], "victim") {
		t.Fatalf("deadlock report %q does not name the victim", dl.Parked)
	}
}

func TestFutureReuseUnderRetry(t *testing.T) {
	// Pooled reply futures are Reset and reused across calls; under heavy
	// retransmission each future must still fire exactly once per call.
	// Sequential blocking calls force the pool to recycle one future while
	// retransmits of earlier (already-answered) requests are still in
	// flight.
	plan := faults.Plan{Seed: 31, Default: faults.PairProbs{Drop: 0.3}}
	e, _, rts, _ := buildFaulty(t, 2, 2, nil, plan, RelConfig{RTO: 5 * time.Millisecond})
	echo := rts.InternTag(Tag{Op: "echo"})
	rts.HandleService(0, echo, func(q *Request) {
		q.Reply(8, q.Payload)
	})
	const calls = 50
	e.Go("caller", func(p *sim.Proc) {
		for i := 0; i < calls; i++ {
			if got := rts.Call(p, 2, 0, echo, 8, i); got.(int) != i {
				t.Errorf("call %d echoed %v", i, got)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChannelDeterminism(t *testing.T) {
	// Same plan, same seed, same workload: three runs must agree exactly on
	// virtual elapsed time, dispatched events and reliability tallies.
	run := func() (time.Duration, uint64, RelStats) {
		plan := faults.Plan{Seed: 77, Default: faults.PairProbs{Drop: 0.15}}
		e, _, rts, _ := buildFaulty(t, 2, 2, nil, plan, RelConfig{})
		obj := rts.NewObject("c", 0, &counter{})
		e.Go("caller", func(p *sim.Proc) {
			for i := 0; i < 30; i++ {
				obj.Invoke(p, 2, incOp(1))
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		elapsed, dispatched, stats := e.Now(), e.Dispatched(), rts.RelStats()
		e.Shutdown()
		return elapsed, dispatched, stats
	}
	e1, d1, s1 := run()
	for i := 0; i < 2; i++ {
		e2, d2, s2 := run()
		if e1 != e2 || d1 != d2 || s1 != s2 {
			t.Fatalf("diverged: (%v, %d, %+v) vs (%v, %d, %+v)", e1, d1, s1, e2, d2, s2)
		}
	}
}

// TestRelConfigSizesRTO pins the zero RTO's sizing to the platform. The DAS
// mesh's 1.15ms hop leaves the 10ms floor in force; ring9's worst routed path
// is four 20ms hops, and tiered64's is 60ms, so their RTOs are twice the
// round trip. An explicit RTO is kept as given.
func TestRelConfigSizesRTO(t *testing.T) {
	load := func(path string) cluster.Topology {
		topo, err := cluster.LoadTopology(path)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	for _, c := range []struct {
		topo cluster.Topology
		cfg  RelConfig
		want time.Duration
	}{
		{cluster.DAS(2, 2), RelConfig{}, 10 * time.Millisecond},
		{cluster.DAS(4, 4), RelConfig{}, 10 * time.Millisecond},
		{load("../../examples/topologies/ring9.json"), RelConfig{}, 320 * time.Millisecond},
		{load("../../examples/topologies/tiered64.json"), RelConfig{}, 240 * time.Millisecond},
		{load("../../examples/topologies/ring9.json"), RelConfig{RTO: 3 * time.Millisecond}, 3 * time.Millisecond},
	} {
		net := netsim.New(sim.NewEngine(), c.topo, cluster.DASParams())
		if got := c.cfg.withDefaults(net).RTO; got != c.want {
			t.Errorf("%v with %+v: RTO %v, want %v", c.topo, c.cfg, got, c.want)
		}
	}
}

func TestEnableReliabilityGuards(t *testing.T) {
	_, _, rts := build(2, 2, nil)
	rts.EnableReliability(RelConfig{})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double EnableReliability not rejected")
			}
		}()
		rts.EnableReliability(RelConfig{})
	}()
	if s := rts.RelStats(); s != (RelStats{}) {
		t.Fatalf("fresh layer has non-zero stats %+v", s)
	}
	// A disabled runtime reports zero stats.
	_, _, bare := build(2, 2, nil)
	if bare.RelStats() != (RelStats{}) {
		t.Fatal("disabled reliability reports state")
	}
}

// TestStopShutdownDuringFaultedDelivery stops runs at a deadline while
// fault-injected losses, retransmit timers and retransmitted copies are
// still in flight, with several such systems running on concurrent goroutines the
// way the harness scheduler runs them. Under -race this checks the teardown
// path against the reliability layer's timer events; without it, that every
// proc is released and no goroutine leaks.
func TestStopShutdownDuringFaultedDelivery(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				plan := faults.Plan{Seed: seed + uint64(i), Default: faults.PairProbs{Drop: 0.3}}
				e, _, rts, _ := buildFaulty(t, 2, 2, nil, plan, RelConfig{RTO: 5 * time.Millisecond})
				obj := rts.NewObject("c", 0, &counter{})
				e.Go("caller", func(p *sim.Proc) {
					for k := 0; k < 50; k++ {
						obj.Invoke(p, 2, incOp(1))
					}
				})
				// Unacked envelopes, armed timers and retransmitted copies
				// are all still pending at the deadline.
				e.SetDeadline(30 * time.Millisecond)
				if err := e.Run(); !errors.As(err, new(*sim.DeadlineError)) {
					t.Errorf("Run() = %v, want a DeadlineError", err)
					return
				}
				e.Shutdown()
				if e.Live() != 0 {
					t.Errorf("%d procs live after Shutdown", e.Live())
					return
				}
			}
		}(uint64(g) * 1000)
	}
	wg.Wait()
}

// TestObjectMisusePanics: misuse of objects and services, and a runtime
// message that breaks the protocols' invariants, panic with a message that
// names the object, service, node or payload.
func TestObjectMisusePanics(t *testing.T) {
	_, _, rts := build(1, 2, nil)
	plain := rts.NewObject("plain", 0, &counter{})
	repl := rts.NewReplicated("repl", func(cluster.NodeID) any { return &counter{} })
	cases := []struct {
		name string
		fn   func()
		want string
	}{
		{"State", func() { repl.State() }, `orca: State on replicated object "repl"; use Replica`},
		{"Replica", func() { plain.Replica(0) }, `orca: Replica on non-replicated object "plain"; use State`},
		{"AsyncUpdate", func() { plain.AsyncUpdate(0, incOp(1)) }, `orca: AsyncUpdate on non-replicated object "plain"`},
		{"Reply", func() { (&Request{call: noReply}).Reply(8, nil) }, "orca: Reply to a Cast request"},
		{"RegisterService", func() {
			h := rts.InternTag(Tag{Op: "h"})
			rts.HandleService(1, h, func(*Request) {})
			rts.RegisterService(1, h)
		}, `orca: service {h 0 0} at node 1 has both a handler and a mailbox`},
		{"HandleService", func() {
			mb := rts.InternTag(Tag{Op: "mb", A: 2})
			rts.RegisterService(1, mb)
			rts.HandleService(1, mb, func(*Request) {})
		}, `orca: service {mb 2 0} at node 1 has both a handler and a mailbox`},
		{"HandleServiceTwice", func() {
			twice := rts.InternTag(Tag{Op: "twice"})
			rts.HandleService(1, twice, func(*Request) {})
			rts.HandleService(1, twice, func(*Request) {})
		}, `orca: service {twice 0 0} at node 1 registered twice`},
		{"CastNoService", func() {
			e, _, rts := build(1, 2, nil)
			rts.Cast(0, 1, rts.InternTag(Tag{Op: "none"}), 8, nil)
			_ = e.Run()
		}, `orca: no service {none 0 0} at node 1`},
		{"EnableReliabilityLate", func() {
			e, _, rts := build(2, 2, nil)
			e.At(time.Millisecond, func() {})
			_ = e.Run()
			rts.EnableReliability(RelConfig{})
		}, "orca: EnableReliability after the run started"},
		// Invariants of the runtime's own messages.
		{"StrayReply", func() { rts.nodes[0].takeCall(7) }, "orca: stray reply 7 at node 0"},
		{"UnknownPayload", func() { rts.dispatchPayload(0, rts.nodes[0], netsim.Msg{Payload: 1}) }, "orca: unknown payload int at node 0"},
		{"UnknownGatewayPayload", func() { rts.gatewayDispatch(netsim.Msg{Payload: 1}) }, "orca: unknown gateway payload int"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("misuse not rejected")
				}
				if msg, ok := r.(string); !ok || msg != tc.want {
					t.Fatalf("panic %v, want %q", r, tc.want)
				}
			}()
			tc.fn()
		})
	}
}

// TestAckForUnopenedChannelPanics: an ack travels back only on a channel
// whose sender sent an envelope, so one for a channel that never sent is an
// invariant violation that names the channel.
func TestAckForUnopenedChannelPanics(t *testing.T) {
	_, _, rts, _ := buildFaulty(t, 2, 2, nil, faults.Plan{}, RelConfig{})
	defer func() {
		want := "orca: ack control 2>0 40B for channel 0->2, which never sent"
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	rts.intercepted(netsim.Msg{From: 2, To: 0, Kind: netsim.KindControl, Seq: 1, Size: relAckBytes, Payload: relAck})
}

// TestBackoffPlateauUnderPermanentPartition pins the ARQ backoff contract on
// a link that never heals: retransmit intervals double from RTO and then
// plateau at 32×RTO — the sender keeps probing at a bounded rate instead of
// backing off forever or spinning.
func TestBackoffPlateauUnderPermanentPartition(t *testing.T) {
	plan := faults.Plan{LinkDowns: []faults.LinkDown{
		{From: 0, To: 1, Duration: time.Hour},
		{From: 1, To: 0, Duration: time.Hour},
	}}
	cfg := RelConfig{} // defaults: RTO 10ms, backoff capped at 320ms
	e, net, rts, _ := buildFaulty(t, 2, 2, nil, plan, cfg)
	var sends []time.Duration
	net.SetTap(func(at time.Duration, m netsim.Msg, inter bool) {
		if inter && m.From == 2 && m.To == 0 {
			sends = append(sends, at)
		}
	})
	obj := rts.NewObject("c", 0, &counter{})
	e.Go("caller", func(p *sim.Proc) {
		obj.Invoke(p, 2, incOp(1))
	})
	e.SetDeadline(5 * time.Second)
	err := e.Run()
	var dl *sim.DeadlineError
	if !errors.As(err, &dl) {
		t.Fatalf("run returned %v, want DeadlineError (sender must keep probing)", err)
	}
	if len(sends) < 10 {
		t.Fatalf("only %d transmissions in 5s, backoff stopped probing", len(sends))
	}
	const rto, maxRTO = 10 * time.Millisecond, 320 * time.Millisecond
	want := rto
	for i := 1; i < len(sends); i++ {
		gap := sends[i] - sends[i-1]
		if gap != want {
			t.Fatalf("retransmit %d after %v, want %v (doubling capped at %v)", i, gap, want, maxRTO)
		}
		if want *= 2; want > maxRTO {
			want = maxRTO
		}
	}
	// The tail of the run must sit on the plateau.
	if last := sends[len(sends)-1] - sends[len(sends)-2]; last != maxRTO {
		t.Fatalf("final interval %v, want the %v plateau", last, maxRTO)
	}
	if rts.RelStats().Retransmits == 0 {
		t.Fatal("no retransmits counted")
	}
}

// TestSendReliableSequenceCeiling: a channel numbers its envelopes in the
// 32-bit Msg.Seq header word. It sends number MaxUint32−1, the last one whose
// cumulative ack still fits the word, and panics naming the channel when the
// next send would pass the ceiling.
func TestSendReliableSequenceCeiling(t *testing.T) {
	_, net, rts := build(2, 2, nil)
	rts.EnableReliability(RelConfig{})
	s := rts.rel.sender(rts.rel.shardOf(0), pairKey{0, 2})
	s.nextSeq = math.MaxUint32 - 1
	var seqs []uint32
	net.SetTap(func(_ time.Duration, m netsim.Msg, inter bool) {
		if inter {
			seqs = append(seqs, m.Seq)
		}
	})
	send := func() {
		rts.send(netsim.Msg{From: 0, To: 2, Kind: netsim.KindData, Size: 8, Payload: "x"})
	}
	send()
	if len(seqs) != 1 || seqs[0] != math.MaxUint32-1 {
		t.Fatalf("sent numbers %v, want [%d]", seqs, uint32(math.MaxUint32-1))
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "channel 0>2") {
			t.Fatalf("panic %q does not name the channel", msg)
		}
	}()
	send()
	t.Fatal("send past the sequence ceiling did not panic")
}
