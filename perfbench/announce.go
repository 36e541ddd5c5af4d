package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"peering/internal/client"
	"peering/internal/dampen"
	"peering/internal/muxproto"
	"peering/internal/policy/compiled"
	"peering/internal/server"
	"peering/internal/wire"
)

// Announce sizing: the open loop runs half a second at a quarter of the
// burst rate, which the safety pipeline handles without queueing; the
// bursts measure its ceiling. The rate is high enough that a 50ms
// latency window holds over a thousand samples.
const (
	anRate     = 20000        // open-loop operations per second
	anOpenLoop = 10000        // half a second of open-loop load
	anWindow   = 1000         // open-loop ops per latency window (50ms)
	anBurst    = 10000        // announcements per back-to-back burst
	anBursts   = 5            // bursts per repetition, each one sample
	anPhases   = 2 + anBursts // set-up, open loop, bursts
	anPreload  = 2000         // withdrawal targets announced during set-up
	anSinks    = 2
	anTable    = 25000 // routes each upstream announces during set-up
)

// anKind is what one announce-workload operation does and what the
// mux must make of it.
type anKind int

const (
	anAccept   anKind = iota // a fresh more-specific of the allocation: relayed
	anWithdraw               // withdraws a prefix announced in set-up (its one flap): relayed
	anHijack                 // outside the allocation: blocked
	anOrigin                 // a foreign origin AS: blocked
	anPolicy                 // a path through Peerlock-protected AS 174: blocked
	anReflap                 // re-announces a withdrawn prefix: dampening suppresses it
)

type anOp struct {
	kind   anKind
	prefix netip.Prefix
	opts   client.AnnounceOptions
}

var (
	anAllocation = netip.MustParsePrefix("100.64.0.0/10")
	anRouterID   = addr4(10, 250, 0, 10) // connect gives client index 9 this router ID
)

// anDampening is the RFC 2439 default profile with the suppress
// threshold between two and three penalties. The mux charges each
// upstream's copy of a client announcement or withdrawal to one
// (prefix, client) key, from that upstream's own session, so when a
// charge lands the penalty holds all of its own session's earlier
// charges and however many of the other session's have landed by
// then, which is anything from none to all: one session can run
// milliseconds ahead of the other. A fresh announcement is charged
// twice in all, once per upstream, and stays below 2500 whatever the
// order, as long as nothing else charges its prefix meanwhile; so only
// prefixes announced in set-up, and fenced there, are withdrawn. A
// re-announcement after a withdrawal is at least its own session's
// fourth charge and is always suppressed. At the textbook threshold
// of 2000 a fresh announcement's second charge lands on the threshold
// itself, and whether it passes turns on microseconds of decay and on
// which charge takes the damper's lock first.
func anDampening() dampen.Config {
	c := dampen.DefaultConfig()
	c.SuppressThreshold = 2.5 * c.FlapPenalty
	return c
}

// announce is the write direction: one client announces and withdraws
// distinct more-specifics of its allocation open-loop through a
// Quagga-mode mux with the compiled filter and RFC 2439 dampening
// (anDampening), to two upstream sinks. A fixed share of operations
// must be blocked.
// It exercises client, tunnel, the client-update vetting pipeline,
// dampen and upstream Send, and no ingest or fan-out.
type announce struct {
	seed  int64
	rules *compiled.RuleSet
	// tbl is the table both upstreams hold from set-up on, as a
	// production mux does while clients announce; held is how much of
	// it passes the filter into each Adj-RIB-In.
	tbl  *table
	held int
	// preload is announced to both upstreams during set-up; the open
	// loop withdraws from it in order.
	preload []netip.Prefix
	ops     []anOp // open-loop ops, then the bursts (all anAccept)
	// announced and withdrawn map a prefix to the op whose
	// announcement or withdrawal the sinks must see.
	announced, withdrawn map[netip.Prefix]int
	counts               [anReflap + 1]int
	// sentinels[phase][k] is announced to sink k alone after a phase's
	// operations (phase 0: the preload). Each upstream's path through
	// the mux is in order, so once a sink holds its sentinel, whatever
	// it still lacks from that phase was lost, not late. Steered at one upstream, a sentinel is
	// charged one dampening penalty and always passes.
	sentinels [anPhases][anSinks]netip.Prefix
}

func newAnnounce(seed int64) *announce {
	return &announce{seed: seed, rules: &compiled.RuleSet{
		Peerlock:  []compiled.PeerlockRule{{Protected: 174, Allowed: []uint32{3356, 2914, 1299}}},
		NoTransit: []uint32{6453},
	}}
}

func (w *announce) generate() error {
	t, err := genTable(w.seed, anTable)
	if err != nil {
		return err
	}
	w.tbl = t
	w.held = len(accepted(t, compiled.Compile(w.rules)))
	rng := rand.New(rand.NewSource(w.seed))
	base := anAllocation.Addr().As4()
	first := rng.Intn(1 << 12) // /26s of the /10, starting at a seeded offset
	next := first
	fresh := func() netip.Prefix {
		k := next % (1 << 16)
		next++
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{base[0], base[1] | byte(k>>10), byte(k >> 2), byte(k&3) << 6}), 26)
	}
	hijacks := 0
	w.ops = w.ops[:0]
	w.announced = map[netip.Prefix]int{}
	w.withdrawn = map[netip.Prefix]int{}
	w.counts = [anReflap + 1]int{}
	w.preload = w.preload[:0]
	for range anPreload {
		w.preload = append(w.preload, fresh())
	}
	pre := w.preload
	var dead []netip.Prefix // withdrawn
	for i := 0; i < anOpenLoop+anBursts*anBurst; i++ {
		kind := anAccept
		if i < anOpenLoop {
			switch x := rng.Float64(); {
			case x < 0.15 && len(pre) > 0:
				kind = anWithdraw
			case x < 0.21:
				kind = anHijack
			case x < 0.27:
				kind = anOrigin
			case x < 0.33:
				kind = anPolicy
			case x < 0.40 && len(dead) > 0:
				kind = anReflap
			}
		}
		op := anOp{kind: kind}
		switch kind {
		case anAccept:
			op.prefix = fresh()
			w.announced[op.prefix] = i
		case anWithdraw:
			op.prefix, pre = pre[0], pre[1:]
			dead = append(dead, op.prefix)
			w.withdrawn[op.prefix] = i
		case anHijack:
			op.prefix = netip.PrefixFrom(addr4(198, 18, byte(hijacks>>8), byte(hijacks)), 32)
			hijacks++
		case anOrigin:
			op.prefix = fresh()
			op.opts.OriginASNs = []uint32{13335}
		case anPolicy:
			op.prefix = fresh()
			op.opts.Poison = []uint32{174}
		case anReflap:
			op.prefix, dead = dead[0], dead[1:]
		}
		w.counts[kind]++
		w.ops = append(w.ops, op)
	}
	if next-first > 1<<16 {
		return fmt.Errorf("%d fresh prefixes overflow the allocation's %d /26s", next-first, 1<<16)
	}
	for ph := range w.sentinels {
		for k := range w.sentinels[ph] {
			w.sentinels[ph][k] = netip.PrefixFrom(netip.AddrFrom4([4]byte{base[0], base[1] | 63, 255, byte(16 * (2*ph + k))}), 28)
		}
	}
	return nil
}

func (w *announce) aliases() map[string]string {
	return map[string]string{
		"converge_s":           "burst: first Announce → both upstreams hold the burst",
		"rate_per_s":           "announce_burst_per_s",
		"p50_ms":               "announce_p50_ms: Announce due → upstream receipt",
		"p99_ms":               "announce_p99_ms: Announce due → upstream receipt",
		"client.join_sync_s":   "late client connects → holds both upstream tables",
		"heap_bytes_per_route": "settled heap ÷ (Adj-RIB-In routes + prefixes advertised upstream)",
	}
}

// sinkTracker records what one upstream sink received.
type sinkTracker struct {
	w      *announce
	k      int
	mu     sync.Mutex
	annAt  map[int]time.Time
	wdAt   map[int]time.Time
	bad    int // leaks of blocked announcements, duplicates
	dups   int
	done   [anPhases]*latch
	active bool
}

func (w *announce) newSink(k int) *sinkTracker {
	s := &sinkTracker{w: w, k: k, annAt: map[int]time.Time{}, wdAt: map[int]time.Time{}}
	for ph := range s.done {
		s.done[ph] = newLatch()
	}
	return s
}

func (s *sinkTracker) onUpdate(u *wire.Update) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.active {
		// Set-up: only the preload's sentinel counts.
		for _, n := range u.Reach {
			if u.Attrs != nil && n.Prefix == s.w.sentinels[0][s.k] {
				s.done[0].fire()
			}
		}
		return
	}
	for _, n := range u.Withdrawn {
		i, ok := s.w.withdrawn[n.Prefix]
		if !ok || !s.wdAt[i].IsZero() {
			s.bad++
			if ok {
				s.dups++
			}
			continue
		}
		s.wdAt[i] = now
	}
	if u.Attrs == nil {
		return
	}
reach:
	for _, n := range u.Reach {
		for ph := range s.w.sentinels {
			if n.Prefix == s.w.sentinels[ph][s.k] {
				s.done[ph].fire()
				continue reach
			}
		}
		i, ok := s.w.announced[n.Prefix]
		if !ok || !s.annAt[i].IsZero() {
			s.bad++ // a blocked announcement leaked, or a duplicate
			if ok {
				s.dups++
			}
			continue
		}
		s.annAt[i] = now
	}
}

func (w *announce) rep(traced bool, base uint64) (*repResult, error) {
	res := &repResult{}
	start := time.Now()
	srv := newMux("announce", 3, muxproto.ModeQuagga, w.rules, anDampening())
	defer srv.Close()
	var sinks []*sinkTracker
	for i, asn := range []uint32{3356, 1299} {
		s := w.newSink(i)
		sp, err := attachSpeaker(srv, uint32(i+1), asn, s.onUpdate)
		if err != nil {
			return nil, err
		}
		defer sp.sess.Close()
		if err := sp.sendAll(w.tbl.upds); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		if _, ok := waitFor(time.Now().Add(waitLimit), func() bool { return sp.up.RoutesIn() >= w.held }); !ok {
			return nil, fmt.Errorf("upstream %d holds %d of %d routes", i+1, sp.up.RoutesIn(), w.held)
		}
		sinks = append(sinks, s)
	}
	exp, err := connect(srv, "exp", 9, false, []netip.Prefix{anAllocation}, nil)
	if err != nil {
		return nil, err
	}
	defer exp.cl.Close()
	if _, ok := exp.arm(anSinks * w.held).wait(time.Now().Add(waitLimit)); !ok {
		return nil, fmt.Errorf("announcing client holds %d of %d routes", exp.cl.TotalRouteCount(), anSinks*w.held)
	}
	// fence sends phase ph's sentinels and waits for both sinks to
	// hold them.
	fence := func(ph int) error {
		for k := range sinks {
			if err := exp.cl.Announce(w.sentinels[ph][k], client.AnnounceOptions{Upstreams: []uint32{uint32(k + 1)}}); err != nil {
				return fmt.Errorf("sentinel: %w", err)
			}
		}
		if _, _, missed := waitAll([]*latch{sinks[0].done[ph], sinks[1].done[ph]}, time.Now().Add(waitLimit)); len(missed) > 0 {
			return fmt.Errorf("%d upstreams never received the phase %d sentinel", len(missed), ph)
		}
		return nil
	}
	for _, p := range w.preload {
		if err := exp.cl.Announce(p, client.AnnounceOptions{}); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	if err := fence(0); err != nil {
		return nil, err
	}
	res.setup = time.Since(start).Seconds()

	for _, s := range sinks {
		s.mu.Lock()
		s.active = true
		s.mu.Unlock()
	}
	runtime.GC() // start the timed event on a collected heap
	s0 := snapServer(srv)
	var hs *heapSampler
	if traced {
		hs = startHeapSampler()
	}
	var callDur time.Duration
	do := func(op anOp) error {
		var s time.Time
		if traced {
			s = time.Now()
		}
		var err error
		if op.kind == anWithdraw {
			err = exp.cl.Withdraw(op.prefix, nil)
		} else {
			err = exp.cl.Announce(op.prefix, op.opts)
		}
		if traced {
			callDur += time.Since(s)
		}
		return err
	}

	interval := time.Second / anRate
	t0 := time.Now().Add(time.Millisecond)
	late, err := openLoop(t0, anOpenLoop, interval, func(i int) error { return do(w.ops[i]) })
	if err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	if err := fence(1); err != nil {
		return nil, err
	}

	// Bursts: each is fenced before the next starts and is one
	// convergence sample.
	starts := make([]time.Time, anBursts)
	for b := range starts {
		starts[b] = time.Now()
		for _, op := range w.ops[anOpenLoop+b*anBurst : anOpenLoop+(b+1)*anBurst] {
			if err := do(op); err != nil {
				return nil, fmt.Errorf("burst: %w", err)
			}
		}
		if err := fence(2 + b); err != nil {
			return nil, err
		}
	}
	peak := hs.finish()
	s2 := snapServer(srv)

	// A burst converged when its last announcement reached the later of
	// the two upstreams.
	sinkLast := make([][anBursts]time.Time, anSinks)
	lat := make([][]sample, anOpenLoop/anWindow)
	for k, s := range sinks {
		s.mu.Lock()
		for i, op := range w.ops {
			var at time.Time
			switch op.kind {
			case anAccept:
				at = s.annAt[i]
			case anWithdraw:
				at = s.wdAt[i]
			default:
				continue
			}
			switch {
			case at.IsZero():
				res.failed++
			case i >= anOpenLoop:
				if b := (i - anOpenLoop) / anBurst; at.After(sinkLast[k][b]) {
					sinkLast[k][b] = at
				}
			case op.kind == anAccept:
				lat[i/anWindow] = append(lat[i/anWindow], sample{ms: ms(at.Sub(t0.Add(time.Duration(i) * interval))), w: 1})
			}
		}
		res.failed += s.bad
		res.dups += s.dups
		s.active = false
		s.mu.Unlock()
	}
	res.windows(lat...)
	res.attempted += len(w.ops) * anSinks
	var convs, spreads []float64
	for b, tb := range starts {
		first, last := sinkLast[0][b], sinkLast[1][b]
		if last.Before(first) {
			first, last = last, first
		}
		if !first.IsZero() {
			convs = append(convs, last.Sub(tb).Seconds())
			spreads = append(spreads, last.Sub(first).Seconds())
		}
	}
	res.converge = convs
	for _, c := range convs {
		res.rate = append(res.rate, anBurst/c)
	}

	// Every blocked operation is counted once per upstream it was
	// steered at, on exactly its own counter.
	d := func(f func(server.Stats) uint64) int { return int(f(s2.st) - f(s0.st)) }
	for _, c := range []struct {
		got  int
		kind anKind
	}{
		{d(func(s server.Stats) uint64 { return s.HijacksBlocked }), anHijack},
		{d(func(s server.Stats) uint64 { return s.OriginBlocked }), anOrigin},
		{d(func(s server.Stats) uint64 { return s.PolicyRejected }), anPolicy},
		{d(func(s server.Stats) uint64 { return s.FlapsSuppressed }), anReflap},
	} {
		res.failed += absDiff(c.got, anSinks*w.counts[c.kind])
	}
	res.failed += shedFailures(srv)

	joins, joiners, err := joinLate(srv, 10, anSinks*w.held, lateJoins)
	for _, j := range joiners {
		defer j.cl.Close()
	}
	if err != nil {
		return nil, err
	}
	res.joins = joins
	res.attempted += lateJoins * anSinks * w.held
	for _, j := range joiners {
		res.tally(j.cl.TotalRouteCount(), anSinks*w.held)
	}

	// The mux holds both Adj-RIB-Ins and, per upstream, every preloaded
	// or accepted prefix not withdrawn again.
	held := anSinks * (w.held + anPreload + w.counts[anAccept] - w.counts[anWithdraw])
	if base > 0 {
		res.heap = heapPerRoute(base, held)
	}
	if traced {
		l := serverLayers(s0, s2, 0, len(w.ops))
		nb := float64(anSinks * anBurst) // one burst's units, set against its convergence
		l["n.nlri_in"], l["n.upd_in"], l["n.verdict_path"], l["n.dampen"] = nb, nb, nb, nb
		l["n.nlri_out"], l["n.upd_out"] = nb, nb
		l["client.converge_spread_s"] = median(spreads)
		l["client.announce_call_us"] = float64(callDur) / 1e3 / float64(len(w.ops))
		l["gen.late_p99_ms"] = quantile(late, 0.99)
		l["go.heap_peak_bytes"] = float64(peak)
		res.layers = l
	}
	return res, nil
}

// isolated runs the layer passes over the UPDATEs the mux receives
// from the client, built as the client builds them.
func (w *announce) isolated() (map[string]float64, error) {
	intern := wire.NewInternTable()
	var upds []*wire.Update
	for _, op := range w.ops {
		if op.kind == anWithdraw {
			upds = append(upds, &wire.Update{Withdrawn: []wire.NLRI{{Prefix: op.prefix}}})
			continue
		}
		path := []uint32{testbedASN}
		path = append(path, op.opts.Poison...)
		path = append(path, op.opts.OriginASNs...)
		if len(op.opts.Poison) > 0 {
			path = append(path, testbedASN)
		}
		a := intern.Intern(&wire.Attrs{Origin: wire.OriginIGP, NextHop: anRouterID,
			ASPath: []wire.Segment{{Type: wire.SegSequence, ASNs: path}}})
		upds = append(upds, &wire.Update{Attrs: a, Reach: []wire.NLRI{{Prefix: op.prefix}}})
	}
	return isolatedPasses(passInputs{
		upds:   upds,
		filter: compiled.Compile(w.rules),
		peer:   compiled.Peer{AS: testbedASN},
	})
}
