package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"time"

	"peering/internal/dampen"
	"peering/internal/mrt"
	"peering/internal/muxproto"
	"peering/internal/policy/compiled"
	"peering/internal/wire"
)

// Full-table sizing: a quarter of the 1M-prefix table, so one
// repetition converges in about a second on two cores and a run can
// take several. The full 1.05M × 64 figure stays with
// `make bench-fulltable`.
const (
	ftPrefixes  = 250000
	ftCountOnly = 8
	// ftJoins is one late join per repetition: a join here syncs the
	// whole table, and the run pools the joins of all its repetitions.
	ftJoins = 1
)

// fulltable replays a generated table at max speed through one
// upstream into a BIRD-mode mux with the compiled filter loaded, then
// lets one more client join. The batch-path layers (batched reads,
// batched shard ingest, broadcast frames, snapshot sync) do nearly all
// their work here.
type fulltable struct {
	seed   int64
	tbl    *table
	rules  *compiled.RuleSet
	filter *compiled.Filter
	want   map[netip.Prefix]*wire.Attrs
}

func newFulltable(seed int64) *fulltable { return &fulltable{seed: seed} }

// generate builds the inputs: the table, its MRT trace, the rule set
// and the table every client must end with.
func (w *fulltable) generate() error {
	t, err := genTable(w.seed, ftPrefixes)
	if err != nil {
		return err
	}
	w.tbl = t
	w.rules = ruleSet(t, rand.New(rand.NewSource(w.seed)))
	w.filter = compiled.Compile(w.rules)
	w.want = accepted(t, w.filter)
	return nil
}

func (w *fulltable) aliases() map[string]string {
	return map[string]string{
		"converge_s":           "converge_s: first record → last client holds the exact table",
		"rate_per_s":           "ingest_routes_per_s: accepted routes ÷ first record → Adj-RIB-In holds them",
		"p50_ms":               "route arrival after the first record, all clients",
		"p99_ms":               "route arrival after the first record, all clients",
		"client.join_sync_s":   "join_sync_s: late client connects → holds the table",
		"heap_bytes_per_route": "heap_bytes_per_route: settled heap ÷ prefixes",
	}
}

func (w *fulltable) rep(traced bool, base uint64) (*repResult, error) {
	res := &repResult{}
	want := len(w.want)
	start := time.Now()
	srv := newMux("fulltable", 1, muxproto.ModeBIRD, w.rules, dampen.Config{})
	defer srv.Close()
	feed, err := attachSpeaker(srv, 1, w.tbl.peerAS, nil)
	if err != nil {
		return nil, err
	}
	defer feed.sess.Close()
	var recv []*receiver
	for i := 0; i <= ftCountOnly; i++ {
		// The last receiver keeps a full view for the attribute check.
		r, err := connect(srv, fmt.Sprintf("c%02d", i), i, i < ftCountOnly, nil, nil)
		if err != nil {
			return nil, err
		}
		defer r.cl.Close()
		recv = append(recv, r)
	}
	res.setup = time.Since(start).Seconds()

	latches := make([]*latch, len(recv))
	for i, r := range recv {
		latches[i] = r.arm(want)
	}
	runtime.GC() // start the timed event on a collected heap
	before := snapServer(srv)
	var hs *heapSampler
	if traced {
		hs = startHeapSampler()
	}
	t0 := time.Now()
	for _, r := range recv {
		r.t0.Store(t0.UnixNano())
	}
	var sendDur time.Duration
	var sends int
	replayed := make(chan error, 1)
	go func() {
		_, err := mrt.Replay(mrt.NewReader(bytes.NewReader(w.tbl.trace)), mrt.ReplayConfig{},
			func(_ *mrt.BGP4MP, u *wire.Update) error {
				if !traced {
					return feed.sess.Send(u)
				}
				s := time.Now()
				err := feed.sess.Send(u)
				sendDur += time.Since(s)
				sends++
				return err
			})
		replayed <- err
	}()
	deadline := t0.Add(waitLimit)
	ingested, ok := waitFor(deadline, func() bool { return feed.up.RoutesIn() >= want })
	if !ok {
		ingested = time.Now()
	}
	first, last, missed := waitAll(latches, deadline)
	for _, i := range missed {
		res.failed += want - recv[i].cl.TotalRouteCount()
	}
	if err := <-replayed; err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	peak := hs.finish()
	after := snapServer(srv)
	var lat []sample
	for _, r := range recv {
		r.t0.Store(0)
		lat = append(lat, r.takeSamples()...)
	}
	res.windows(lat)
	res.converge = []float64{last.Sub(t0).Seconds()}
	res.rate = []float64{float64(want) / ingested.Sub(t0).Seconds()}
	res.attempted += want * len(recv)

	// A late client joins the converged mux.
	joins, joiners, err := joinLate(srv, ftCountOnly+1, want, ftJoins)
	for _, j := range joiners {
		defer j.cl.Close()
	}
	if err != nil {
		return nil, err
	}
	res.joins = joins
	res.attempted += want * ftJoins

	// Exactly once: every count-only tally ends on the table size (an
	// overshoot is a duplicate), the full view matches attribute for
	// attribute, and nothing was shed.
	for _, r := range append(recv[:ftCountOnly:ftCountOnly], joiners...) {
		res.tally(r.cl.RouteCount(1), want)
	}
	res.failed += compareView(recv[ftCountOnly].cl, 1, w.want)
	res.failed += absDiff(feed.up.RoutesIn(), want)
	res.failed += shedFailures(srv)

	recv[ftCountOnly].cl.Close()
	if base > 0 {
		res.heap = heapPerRoute(base, want)
	}
	if traced {
		l := serverLayers(before, after, len(recv), want)
		l["n.upd_in"], l["n.verdict"], l["n.install"] = float64(len(w.tbl.upds)), l["n.nlri_in"], float64(want)
		l["server.ingest_s"] = ingested.Sub(t0).Seconds()
		l["server.fanout_tail_s"] = last.Sub(ingested).Seconds()
		l["client.converge_spread_s"] = last.Sub(first).Seconds()
		l["bgp.feeder_send_us"] = ratio(float64(sendDur)/1e3, float64(sends))
		l["go.heap_peak_bytes"] = float64(peak)
		res.layers = l
	}
	return res, nil
}

func (w *fulltable) isolated() (map[string]float64, error) {
	return isolatedPasses(passInputs{
		trace:  w.tbl.trace,
		upds:   w.tbl.upds,
		filter: w.filter,
		peer:   compiled.Peer{AS: w.tbl.peerAS},
	})
}
