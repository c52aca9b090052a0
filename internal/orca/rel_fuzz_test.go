package orca

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"albatross/internal/cluster"
	"albatross/internal/netsim"
	"albatross/internal/sim"
)

// The reliable channel's contract under a scripted WAN: every channel
// delivers each message exactly once, in send order, to its own tag's
// mailbox, whichever of its envelopes, retransmissions and acks the wire
// loses, and a run repeats exactly. FuzzRelChannel
// searches program space; TestRelChannelRandomPrograms is its deterministic
// twin in the default suite.

// relProgram is a decoded fuzz program on a two-cluster platform.
type relProgram struct {
	npc      int         // nodes per cluster
	channels []relFuzzCh // distinct directed intercluster pairs
	drops    []bool      // one per WAN transmission (envelope, retransmission or ack), in order; then deliver
}

// relFuzzCh is one channel's traffic: n messages, gap apart.
type relFuzzCh struct {
	from, to cluster.NodeID
	n        int
	gap      time.Duration
}

// relFuzzMsg is a channel's i-th payload.
type relFuzzMsg struct{ c, i int }

// sharedDest reports whether two of p's channels end at one node, so their
// different tags alone keep their messages apart.
func (p relProgram) sharedDest() bool {
	for a, ca := range p.channels {
		for _, cb := range p.channels[a+1:] {
			if ca.to == cb.to {
				return true
			}
		}
	}
	return false
}

// relFuzzRTO is the channels' retransmit timeout.
const relFuzzRTO = 2 * time.Millisecond

// decodeRelProgram maps any byte string to a valid program.
func decodeRelProgram(b []byte) relProgram {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		v := b[0]
		b = b[1:]
		return v
	}
	p := relProgram{npc: 1 + int(next()%2)}
	var pairs [][2]cluster.NodeID
	for i := 0; i < p.npc; i++ {
		for j := 0; j < p.npc; j++ {
			a, z := cluster.NodeID(i), cluster.NodeID(p.npc+j)
			pairs = append(pairs, [2]cluster.NodeID{a, z}, [2]cluster.NodeID{z, a})
		}
	}
	used := make([]bool, len(pairs))
	for k := 1 + int(next()%4); k > 0; k-- {
		i := int(next()) % len(pairs)
		if used[i] {
			continue
		}
		used[i] = true
		p.channels = append(p.channels, relFuzzCh{
			from: pairs[i][0], to: pairs[i][1],
			n:   1 + int(next())%80, // bursts past relWindow
			gap: time.Duration(next()%4) * relFuzzRTO / 4,
		})
	}
	for len(b) > 0 && len(p.drops) < 256 {
		p.drops = append(p.drops, next()%8 >= 5)
	}
	return p
}

// scriptPolicy rules on WAN transmissions in the order the engine makes
// them, from the program's drop list; nothing crashes or goes down.
type scriptPolicy struct {
	drops []bool
	next  int
}

func (s *scriptPolicy) WANTransit(time.Duration, int, int, netsim.Msg) bool {
	if s.next == len(s.drops) {
		return false
	}
	s.next++
	return s.drops[s.next-1]
}

func (*scriptPolicy) GatewayDown(time.Duration, int, netsim.Msg) bool { return false }
func (*scriptPolicy) LinkDown(time.Duration, int, int) bool           { return false }
func (*scriptPolicy) LinkChanges() []time.Duration                    { return nil }
func (*scriptPolicy) Bind(int)                                        {}

// relOutcome is everything a run of a program observes, for the
// run-twice comparison.
type relOutcome struct {
	log        []string // per delivery: time, channel, payload
	end        time.Duration
	dispatched uint64
	stats      RelStats
	late       int // envelopes arriving ≥ relWindow behind their receiver
}

// runRelProgram runs p and checks the contract: each channel's receiver
// takes exactly the n messages sent, in send order, from the channel's own
// tag's mailbox, and the run ends on its own (every window drains) well
// before its deadline.
func runRelProgram(t *testing.T, p relProgram) relOutcome {
	t.Helper()
	e, net, rts := build(2, p.npc, nil)
	net.SetFaultPolicy(&scriptPolicy{drops: p.drops})
	rts.EnableReliability(RelConfig{RTO: relFuzzRTO})
	var out relOutcome
	// Count envelopes that surface ≥ relWindow numbers behind the receiver,
	// before the node's own handler sees them.
	for id := cluster.NodeID(0); int(id) < 2*p.npc; id++ {
		h := rts.dispatchFor(id)
		net.SetHandler(id, func(m netsim.Msg) {
			if rts.net.ClusterOf(m.From) != rts.net.ClusterOf(m.To) && m.Payload != relAck {
				rc := rts.rel.shardOf(m.To).recv[pairKey{m.From, m.To}]
				if rc != nil && uint64(m.Seq)+relWindow <= rc.win.Next() {
					out.late++
				}
			}
			h(m)
		})
	}
	tags := make([]TagID, len(p.channels))
	for c, ch := range p.channels {
		tags[c] = rts.InternTag(Tag{Op: "relfuzz", A: c})
		e.Go("send", func(sp *sim.Proc) {
			for i := 0; i < ch.n; i++ {
				rts.SendDataID(ch.from, ch.to, tags[c], 64, relFuzzMsg{c, i})
				sp.Sleep(ch.gap)
			}
		})
		e.Go("recv", func(rp *sim.Proc) {
			for i := 0; i < ch.n; i++ {
				got := rts.RecvDataID(rp, ch.to, tags[c]).(relFuzzMsg)
				if got != (relFuzzMsg{c, i}) {
					t.Errorf("channel %d %d>%d: message %d surfaced as %+v", c, ch.from, ch.to, i, got)
				}
				out.log = append(out.log, fmt.Sprint(rp.Now(), c, got))
			}
		})
	}
	e.SetDeadline(10 * time.Minute)
	if err := e.Run(); err != nil {
		t.Fatalf("run did not drain: %v", err)
	}
	for c, ch := range p.channels {
		if v, ok := rts.TryRecvDataID(ch.to, tags[c]); ok {
			t.Errorf("channel %d>%d delivered an extra message %v", ch.from, ch.to, v)
		}
	}
	out.end, out.dispatched, out.stats = e.Now(), e.Dispatched(), rts.RelStats()
	return out
}

// checkRelProgram runs p twice and requires identical outcomes.
func checkRelProgram(t *testing.T, p relProgram) relOutcome {
	t.Helper()
	a := runRelProgram(t, p)
	b := runRelProgram(t, p)
	if !slices.Equal(a.log, b.log) || a.end != b.end || a.dispatched != b.dispatched || a.stats != b.stats || a.late != b.late {
		t.Fatalf("repeat diverged: end %v/%v, events %d/%d, stats %+v/%+v", a.end, b.end, a.dispatched, b.dispatched, a.stats, b.stats)
	}
	return a
}

func FuzzRelChannel(f *testing.F) {
	f.Add([]byte{1, 3, 0, 20, 39, 1, 5, 30, 77, 2, 1, 40, 2})
	f.Add([]byte{0, 1, 0, 2, 39, 0, 4, 4, 4, 5, 5, 255, 255, 254, 4, 4})
	f.Add([]byte{1, 2, 5, 2, 39, 3, 6, 2, 20, 1, 255, 247, 239, 4, 5, 6, 7, 231, 12})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkRelProgram(t, decodeRelProgram(b))
	})
}

// TestRelChannelRandomPrograms is FuzzRelChannel's deterministic twin. Over
// its programs losses must have forced retransmissions, duplicates and
// out-of-order arrivals, some copies (retransmissions of envelopes whose
// acks were lost) must have surfaced ≥ relWindow numbers late, and some
// programs must have retransmitted into a node that two channels with
// different tags share, or the contract was never exercised where the
// window's slots are reused and where only the Msg.Tag word tells streams
// apart.
func TestRelChannelRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 1))
	var sum RelStats
	late, shared := 0, 0
	for i := 0; i < 500; i++ {
		b := make([]byte, 8+rng.IntN(120))
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		p := decodeRelProgram(b)
		out := checkRelProgram(t, p)
		if t.Failed() {
			t.Fatalf("program %x failed", b)
		}
		sum.add(&out.stats)
		late += out.late
		if p.sharedDest() && out.stats.Retransmits > 0 {
			shared++
		}
	}
	if sum.Retransmits == 0 || sum.DupDropped == 0 || sum.OutOfOrder == 0 || late == 0 || shared == 0 {
		t.Fatalf("programs never exercised the channel: %+v, %d late copies, %d retransmitting into a shared destination", sum, late, shared)
	}
	t.Logf("%+v, %d late copies, %d programs retransmitting into a shared destination", sum, late, shared)
}
