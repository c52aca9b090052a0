package netsim

import "time"

// Counter accumulates message count and byte volume.
type Counter struct {
	Msgs  int64
	Bytes int64
}

// Add merges another counter into c.
func (c *Counter) Add(o Counter) {
	c.Msgs += o.Msgs
	c.Bytes += o.Bytes
}

// KBytes reports the byte volume in kilobytes (paper units: 1 kB = 1024 B).
func (c Counter) KBytes() float64 { return float64(c.Bytes) / 1024 }

// Scope indices into Stats.counts: the send path passes them as constants,
// so metering a message is a branch-free array index.
const (
	scopeIntra = 0 // traffic that stayed inside a cluster
	scopeInter = 1 // traffic that crossed a WAN link
)

// Stats meters all traffic of a Network, split by locality and kind.
// It is the data source for the paper's traffic tables.
type Stats struct {
	counts [2][NumKinds]Counter // [scopeIntra|scopeInter][kind]

	// Gateway transport layer (transport.go): frames counts coalesced WAN
	// transmissions (Bytes = framed payload volume) and framedMsgs the
	// application messages packed inside them. Both stay zero when the
	// layer is off; the per-kind tables above always meter application
	// messages, framed or not.
	frames     Counter
	framedMsgs int64

	// Route-health accounting (link fault domains): reroutes counts
	// transmissions that took an alternate next hop because the preferred
	// link was down, heldMsgs the wire units (messages or frames) parked in
	// a gateway hold queue because no route existed, and holdDrops the held
	// units eventually dropped (hold timeout or queue overflow) — the
	// network's end of the contract that ARQ owns recovery. All stay zero
	// without a link-failure plan.
	reroutes  int64
	heldMsgs  int64
	holdDrops int64
}

func (s *Stats) count(scope int, k Kind, size int) {
	c := &s.counts[scope][k]
	c.Msgs++
	c.Bytes += int64(size)
}

// Intra reports the intracluster traffic of one message kind.
func (s *Stats) Intra(k Kind) Counter { return s.counts[scopeIntra][k] }

// Inter reports the intercluster traffic of one message kind.
func (s *Stats) Inter(k Kind) Counter { return s.counts[scopeInter][k] }

// Clone returns a copy of the current counters.
func (s *Stats) Clone() Stats { return *s }

// add folds another engine's counters into s: the one place that
// enumerates Stats' fields, so a new counter cannot be left out of a fold.
func (s *Stats) add(o *Stats) {
	for scope := range s.counts {
		for k := range s.counts[scope] {
			s.counts[scope][k].Add(o.counts[scope][k])
		}
	}
	s.frames.Add(o.frames)
	s.framedMsgs += o.framedMsgs
	s.reroutes += o.reroutes
	s.heldMsgs += o.heldMsgs
	s.holdDrops += o.holdDrops
}

// Reroutes reports transmissions that detoured around a down link.
func (s *Stats) Reroutes() int64 { return s.reroutes }

// HeldMsgs reports wire units parked in gateway hold queues while no route
// to their destination existed.
func (s *Stats) HeldMsgs() int64 { return s.heldMsgs }

// HoldDrops reports held wire units the network eventually gave up on
// (hold timeout or hold-queue overflow).
func (s *Stats) HoldDrops() int64 { return s.holdDrops }

// WANFrames reports the coalesced transport frames that crossed WAN links:
// Msgs is the wire-level transmission count, Bytes the framed payload volume.
// Zero when the gateway transport layer is off.
func (s *Stats) WANFrames() Counter { return s.frames }

// FramedMsgs reports how many application messages those frames carried.
func (s *Stats) FramedMsgs() int64 { return s.framedMsgs }

// PackingRatio reports the average application messages per WAN frame — the
// transport layer's packing efficiency (0 when no frames were sent).
func (s *Stats) PackingRatio() float64 {
	if s.frames.Msgs == 0 {
		return 0
	}
	return float64(s.framedMsgs) / float64(s.frames.Msgs)
}

// TotalIntra sums all intracluster traffic.
func (s *Stats) TotalIntra() Counter {
	var t Counter
	for k := 0; k < NumKinds; k++ {
		t.Add(s.counts[scopeIntra][k])
	}
	return t
}

// TotalInter sums all intercluster traffic.
func (s *Stats) TotalInter() Counter {
	var t Counter
	for k := 0; k < NumKinds; k++ {
		t.Add(s.counts[scopeInter][k])
	}
	return t
}

// InterRPC reports intercluster RPC traffic (requests + replies), in the
// paper's Table 4/5 convention: the count is the number of requests that
// crossed a WAN link and the volume includes both directions.
func (s *Stats) InterRPC() Counter {
	return Counter{
		Msgs:  s.counts[scopeInter][KindRPCReq].Msgs,
		Bytes: s.counts[scopeInter][KindRPCReq].Bytes + s.counts[scopeInter][KindRPCRep].Bytes,
	}
}

// InterBcast reports intercluster broadcast traffic.
func (s *Stats) InterBcast() Counter { return s.counts[scopeInter][KindBcast] }

// InterData reports intercluster bulk-data traffic.
func (s *Stats) InterData() Counter { return s.counts[scopeInter][KindData] }

// p2Quantile is the P² streaming quantile estimator (Jain & Chlamtac, CACM
// 1985): five markers track the running min, p/2, p, (1+p)/2 quantiles and
// max, adjusted by piecewise-parabolic interpolation on every observation.
// Memory is O(1) and an observation costs a handful of comparisons — the
// per-link-class queueing-delay tails stay cheap however many transmissions
// a grid-scale run makes. Below five samples the raw values are kept and the
// estimate is exact.
type p2Quantile struct {
	p   float64 // target quantile, set by the first observation
	n   int64
	q   [5]float64 // marker heights
	pos [5]float64 // actual marker positions (1-based)
	des [5]float64 // desired marker positions
	inc [5]float64 // desired-position increments per observation
}

func (s *p2Quantile) observe(p, x float64) {
	if s.n < 5 {
		s.p = p
		s.q[s.n] = x
		s.n++
		if s.n == 5 {
			// Switch to marker mode: sort the first five samples and lay
			// the desired positions out for quantile p.
			for i := 1; i < 5; i++ {
				for j := i; j > 0 && s.q[j] < s.q[j-1]; j-- {
					s.q[j], s.q[j-1] = s.q[j-1], s.q[j]
				}
			}
			s.pos = [5]float64{1, 2, 3, 4, 5}
			s.des = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
			s.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
		}
		return
	}
	var k int
	switch {
	case x < s.q[0]:
		s.q[0] = x
		k = 0
	case x >= s.q[4]:
		s.q[4] = x
		k = 3
	default:
		for x >= s.q[k+1] {
			k++
		}
	}
	for i := k + 1; i < 5; i++ {
		s.pos[i]++
	}
	for i := range s.des {
		s.des[i] += s.inc[i]
	}
	s.n++
	for i := 1; i <= 3; i++ {
		d := s.des[i] - s.pos[i]
		if (d >= 1 && s.pos[i+1]-s.pos[i] > 1) || (d <= -1 && s.pos[i-1]-s.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			// Parabolic prediction, falling back to linear when it would
			// break marker monotonicity.
			q := s.parabolic(i, sign)
			if !(s.q[i-1] < q && q < s.q[i+1]) {
				q = s.linear(i, sign)
			}
			s.q[i] = q
			s.pos[i] += sign
		}
	}
}

func (s *p2Quantile) parabolic(i int, d float64) float64 {
	return s.q[i] + d/(s.pos[i+1]-s.pos[i-1])*
		((s.pos[i]-s.pos[i-1]+d)*(s.q[i+1]-s.q[i])/(s.pos[i+1]-s.pos[i])+
			(s.pos[i+1]-s.pos[i]-d)*(s.q[i]-s.q[i-1])/(s.pos[i]-s.pos[i-1]))
}

func (s *p2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return s.q[i] + d*(s.q[j]-s.q[i])/(s.pos[j]-s.pos[i])
}

// estimate returns the current quantile estimate: the middle marker in
// marker mode, the exact nearest-rank quantile below five samples.
func (s *p2Quantile) estimate() float64 {
	if s.n == 0 {
		return 0
	}
	if s.n < 5 {
		var sorted [5]float64
		copy(sorted[:], s.q[:s.n])
		for i := 1; i < int(s.n); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		// Nearest rank; p ≤ 1 keeps it below n.
		return sorted[max(int(s.p*float64(s.n)+0.5)-1, 0)]
	}
	return s.q[2]
}

// ClassReport aggregates a run's wide-area traffic over one link class:
// wire-level (per-hop) transmission counts, volumes, link occupancy and the
// distribution of the queueing delay transmissions spent waiting behind
// earlier traffic on their pipe.
type ClassReport struct {
	Class    string
	Xmits    int64 // wire transmissions (a coalesced frame counts once per hop)
	Msgs     int64 // application messages carried (counted again on every hop)
	Frames   int64
	Bytes    int64
	Busy     time.Duration // cumulative serialization time across the class's pipes
	MinWait  time.Duration
	MeanWait time.Duration
	MaxWait  time.Duration
	P99Wait  time.Duration // P² streaming estimate
}

// ClassReports sums the pipes of each link class into one report per class,
// ordered by class, omitting classes that carried nothing. Counts, volumes
// and min/max merge exactly; the p99 is the mean of the per-cluster P²
// estimates weighted by each cluster's transmissions, folded in cluster
// order. The merge is a pure function of per-cluster state, so sequential
// and sharded runs of the same workload render identical reports.
func (n *Network) ClassReports() []ClassReport {
	var out []ClassReport
	for ci := range n.classes {
		r := ClassReport{Class: n.classes[ci].name}
		var sumWait time.Duration
		var wp99 float64
		for c, links := range n.adj {
			var xmits int64
			for i := range links {
				if int(links[i].class) != ci {
					continue
				}
				for k := range links[i].pipes {
					p := &links[i].pipes[k]
					if p.msgs == 0 {
						continue
					}
					if r.Msgs == 0 || p.minWait < r.MinWait {
						r.MinWait = p.minWait
					}
					r.MaxWait = max(r.MaxWait, p.maxWait)
					r.Msgs += p.msgs
					r.Frames += p.frames
					r.Bytes += p.bytes
					r.Busy += p.busy
					sumWait += p.sumWait
					if n.xp != nil {
						xmits += p.frames // every transmission is a frame
					} else {
						xmits += p.msgs
					}
				}
			}
			if xmits > 0 {
				r.Xmits += xmits
				wp99 += float64(xmits) * n.p99[c][ci].estimate()
			}
		}
		if r.Xmits == 0 {
			continue
		}
		r.MeanWait = sumWait / time.Duration(r.Xmits)
		r.P99Wait = time.Duration(wp99 / float64(r.Xmits))
		out = append(out, r)
	}
	return out
}
