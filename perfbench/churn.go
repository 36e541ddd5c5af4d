package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"time"

	"peering/internal/dampen"
	"peering/internal/muxproto"
	"peering/internal/policy/compiled"
	"peering/internal/wire"
)

// Churn sizing. The open-loop rate sits well below saturation (a
// 50K/s, 16-client prototype saturated the mux on two cores), so the
// relay latency it measures is the per-UPDATE path's own, not a queue.
const (
	chPrefixes      = 60000
	chCountOnly     = 4
	chRate          = 5000  // open-loop UPDATEs per second
	chOpenLoop      = 5000  // one second of open-loop load
	chWindow        = 250   // open-loop ops per latency window (50ms)
	chBurst         = 10000 // UPDATEs per back-to-back burst
	chBursts        = 5     // bursts per repetition, each one sample
	chWithdrawShare = 0.1
)

// churnOp is one single-NLRI UPDATE of the timed event: an implicit
// replace carrying its sequence number in MED, or a withdrawal (med 0).
type churnOp struct {
	upd    *wire.Update
	prefix netip.Prefix
	med    uint32
}

// churn preloads a table into a Quagga-mode mux during set-up, then
// sends single-NLRI UPDATEs open-loop at a fixed rate, then a
// back-to-back burst. Every UPDATE touches a distinct prefix, so each
// must reach every client exactly once. Batches stay at about one, so
// this is the per-UPDATE path: per-op queues, coalescing, private
// encodes; broadcast frames are bypassed.
type churn struct {
	seed  int64
	tbl   *table
	ops   []churnOp // open-loop ops, then burst ops
	index map[netip.Prefix]int
	final map[netip.Prefix]*wire.Attrs

	replaces, withdraws int
}

func newChurn(seed int64) *churn { return &churn{seed: seed} }

func (w *churn) generate() error {
	t, err := genTable(w.seed, chPrefixes)
	if err != nil {
		return err
	}
	var prefixes []netip.Prefix
	final := make(map[netip.Prefix]*wire.Attrs, t.routes)
	for _, u := range t.upds {
		for _, n := range u.Reach {
			prefixes = append(prefixes, n.Prefix)
			final[n.Prefix] = u.Attrs
		}
	}
	n := chOpenLoop + chBursts*chBurst
	if n > len(prefixes) {
		return fmt.Errorf("table of %d prefixes cannot carry %d distinct churn UPDATEs", len(prefixes), n)
	}
	rng := rand.New(rand.NewSource(w.seed + 1))
	perm := rng.Perm(len(prefixes))
	w.tbl, w.final = t, final
	w.ops = make([]churnOp, n)
	w.index = make(map[netip.Prefix]int, n)
	w.replaces, w.withdraws = 0, 0
	for i := range w.ops {
		p := prefixes[perm[i]]
		w.index[p] = i
		if rng.Float64() < chWithdrawShare {
			w.ops[i] = churnOp{upd: &wire.Update{Withdrawn: []wire.NLRI{{Prefix: p}}}, prefix: p}
			delete(final, p)
			w.withdraws++
			continue
		}
		a := final[p].Clone()
		a.MED, a.HasMED = uint32(i+1), true
		w.ops[i] = churnOp{upd: &wire.Update{Attrs: a, Reach: []wire.NLRI{{Prefix: p}}}, prefix: p, med: uint32(i + 1)}
		final[p] = a
		w.replaces++
	}
	return nil
}

func (w *churn) aliases() map[string]string {
	return map[string]string{
		"converge_s":           "burst: first burst UPDATE → last client holds the burst",
		"rate_per_s":           "burst_updates_per_s",
		"p50_ms":               "relay_p50_ms: open-loop UPDATE due → client receipt",
		"p99_ms":               "relay_p99_ms: open-loop UPDATE due → client receipt",
		"client.join_sync_s":   "late client connects → holds the churned table",
		"heap_bytes_per_route": "settled heap ÷ prefixes",
	}
}

// opTracker records, for one receiver, when each churn op arrived.
type opTracker struct {
	w      *churn
	mu     sync.Mutex
	active bool
	arr    []time.Time
	bad    int // duplicates, wrong versions and unknown prefixes
	dups   int
	// left and done are per phase: the open loop, then each burst.
	left []int
	done []*latch
}

func (w *churn) newTracker() *opTracker {
	t := &opTracker{w: w, arr: make([]time.Time, len(w.ops)), left: []int{chOpenLoop}, done: []*latch{newLatch()}}
	for b := 0; b < chBursts; b++ {
		t.left = append(t.left, chBurst)
		t.done = append(t.done, newLatch())
	}
	return t
}

// phase is the open loop (0) or the burst (1, 2, …) op i belongs to.
func phase(i int) int {
	if i < chOpenLoop {
		return 0
	}
	return 1 + (i-chOpenLoop)/chBurst
}

func (t *opTracker) start() {
	t.mu.Lock()
	t.active = true
	t.mu.Unlock()
}

func (t *opTracker) hook(u *wire.Update) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.active {
		return // the preload sync
	}
	for _, n := range u.Withdrawn {
		t.arrived(n.Prefix, 0, now)
	}
	if u.Attrs != nil {
		for _, n := range u.Reach {
			t.arrived(n.Prefix, u.Attrs.MED, now)
		}
	}
}

// arrived books one delivery. Caller holds t.mu.
func (t *opTracker) arrived(p netip.Prefix, med uint32, now time.Time) {
	i, ok := t.w.index[p]
	switch {
	case !ok:
		t.bad++
		return
	case !t.arr[i].IsZero():
		t.bad++
		t.dups++
		return
	case t.w.ops[i].med != med:
		t.bad++ // wrong version; still counted as arrived so the wait ends
	}
	t.arr[i] = now
	ph := phase(i)
	if t.left[ph]--; t.left[ph] == 0 {
		t.done[ph].fire()
	}
}

func (w *churn) rep(traced bool, base uint64) (*repResult, error) {
	res := &repResult{}
	start := time.Now()
	srv := newMux("churn", 2, muxproto.ModeQuagga, nil, dampen.Config{})
	defer srv.Close()
	feed, err := attachSpeaker(srv, 1, w.tbl.peerAS, nil)
	if err != nil {
		return nil, err
	}
	defer feed.sess.Close()
	if err := feed.sendAll(w.tbl.upds); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	// Preloaded means the mux holds the table before any client joins.
	if _, ok := waitFor(time.Now().Add(waitLimit), func() bool { return feed.up.RoutesIn() >= w.tbl.routes }); !ok {
		return nil, fmt.Errorf("mux holds %d of %d preloaded routes", feed.up.RoutesIn(), w.tbl.routes)
	}
	var recv []*receiver
	var trk []*opTracker
	for i := 0; i <= chCountOnly; i++ {
		tr := w.newTracker()
		r, err := connect(srv, fmt.Sprintf("c%02d", i), i, i < chCountOnly, nil, tr.hook)
		if err != nil {
			return nil, err
		}
		defer r.cl.Close()
		recv, trk = append(recv, r), append(trk, tr)
	}
	synced := make([]*latch, len(recv))
	for i, r := range recv {
		synced[i] = r.arm(w.tbl.routes)
	}
	if _, _, missed := waitAll(synced, time.Now().Add(waitLimit)); len(missed) > 0 {
		return nil, fmt.Errorf("%d clients never held the preloaded table", len(missed))
	}
	res.setup = time.Since(start).Seconds()

	for _, t := range trk {
		t.start()
	}
	runtime.GC() // start the timed event on a collected heap
	s0 := snapServer(srv)
	var hs *heapSampler
	if traced {
		hs = startHeapSampler()
	}
	var sendDur time.Duration
	send := func(u *wire.Update) error {
		if !traced {
			return feed.sess.Send(u)
		}
		s := time.Now()
		err := feed.sess.Send(u)
		sendDur += time.Since(s)
		return err
	}

	interval := time.Second / chRate
	t0 := time.Now().Add(time.Millisecond)
	late, err := openLoop(t0, chOpenLoop, interval, func(i int) error { return send(w.ops[i].upd) })
	if err != nil {
		return nil, fmt.Errorf("open-loop send: %w", err)
	}
	deadline := time.Now().Add(waitLimit)
	olDone := make([]*latch, len(trk))
	for i, t := range trk {
		olDone[i] = t.done[0]
	}
	waitAll(olDone, deadline)
	runtime.GC()
	s1 := snapServer(srv)

	// Bursts: each converges before the next starts and is one
	// convergence sample.
	var convs, spreads []float64
	for b := 0; b < chBursts; b++ {
		tb := time.Now()
		for _, op := range w.ops[chOpenLoop+b*chBurst : chOpenLoop+(b+1)*chBurst] {
			if err := send(op.upd); err != nil {
				return nil, fmt.Errorf("burst send: %w", err)
			}
		}
		done := make([]*latch, len(trk))
		for i, t := range trk {
			done[i] = t.done[1+b]
		}
		first, last, missed := waitAll(done, tb.Add(waitLimit))
		if len(missed) == 0 {
			convs = append(convs, last.Sub(tb).Seconds())
			spreads = append(spreads, last.Sub(first).Seconds())
		}
	}
	peak := hs.finish()
	s2 := snapServer(srv)

	lat := make([][]sample, chOpenLoop/chWindow)
	for _, t := range trk {
		t.mu.Lock()
		for i, at := range t.arr {
			switch {
			case at.IsZero():
				res.failed++ // never arrived
			case i < chOpenLoop:
				lat[i/chWindow] = append(lat[i/chWindow], sample{ms: ms(at.Sub(t0.Add(time.Duration(i) * interval))), w: 1})
			}
		}
		res.failed += t.bad
		res.dups += t.dups
		t.active = false
		t.mu.Unlock()
	}
	res.windows(lat...)
	res.attempted += len(w.ops) * len(trk)
	res.converge = convs
	for _, c := range convs {
		res.rate = append(res.rate, chBurst/c)
	}

	joins, joiners, err := joinLate(srv, chCountOnly+1, len(w.final), lateJoins)
	for _, j := range joiners {
		defer j.cl.Close()
	}
	if err != nil {
		return nil, err
	}
	res.joins = joins
	res.attempted += len(w.final) * lateJoins

	// Count-only tallies count a replace again, so each ends on
	// table + replaces − withdrawals; the joiner syncs the final table.
	for _, r := range recv[:chCountOnly] {
		res.tally(r.cl.RouteCount(1), w.tbl.routes+w.replaces-w.withdraws)
	}
	for _, j := range joiners {
		res.tally(j.cl.RouteCount(1), len(w.final))
	}
	res.failed += compareView(recv[chCountOnly].cl, 1, w.final)
	res.failed += shedFailures(srv)

	recv[chCountOnly].cl.Close()
	if base > 0 {
		res.heap = heapPerRoute(base, len(w.final))
	}
	if traced {
		l := serverLayers(s0, s2, len(recv), len(w.ops))
		// Stage units of one burst, to set against its convergence.
		burst := serverLayers(s1, s2, len(recv), chBursts*chBurst)
		for _, k := range []string{"n.nlri_in", "n.nlri_out", "n.upd_out"} {
			l[k] = burst[k] / chBursts
		}
		l["n.upd_in"], l["n.install"] = chBurst, chBurst
		l["client.converge_spread_s"] = median(spreads)
		l["bgp.feeder_send_us"] = float64(sendDur) / 1e3 / float64(len(w.ops))
		l["gen.late_p99_ms"] = quantile(late, 0.99)
		l["go.heap_peak_bytes"] = float64(peak)
		res.layers = l
	}
	return res, nil
}

func (w *churn) isolated() (map[string]float64, error) {
	upds := make([]*wire.Update, len(w.ops))
	for i, op := range w.ops {
		upds[i] = op.upd
	}
	// The churn mux runs unfiltered; the policy passes show what the
	// compiled filter would cost on these UPDATEs.
	return isolatedPasses(passInputs{
		upds:   upds,
		filter: compiled.Compile(ruleSet(w.tbl, rand.New(rand.NewSource(w.seed)))),
		peer:   compiled.Peer{AS: w.tbl.peerAS},
	})
}
