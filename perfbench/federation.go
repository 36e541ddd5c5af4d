package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"strings"
	"time"

	"peering/internal/dampen"
	"peering/internal/federation"
	"peering/internal/ixp"
	"peering/internal/muxproto"
	"peering/internal/policy/compiled"
	"peering/internal/server"
	"peering/internal/telemetry"
	"peering/internal/wire"
)

const (
	fedPrefixes  = 1000
	fedCountOnly = 4
)

// federation joins two colocated muxes (the ixp physical-site profile,
// so the backhaul adds no remote-peering latency or flaps) during
// set-up, while the serving mux's one upstream is still empty. The
// timed event is that upstream sending its table; it ends when the
// count-only clients at the other mux hold it. It measures
// internal/federation: agent export, the backhaul tunnel,
// mirrored-upstream import.
//
// The mesh is up and its (empty) replay done before the table flows.
// federation.New over a table the serving mux already holds delivers
// some routes twice: the serving agent's client is still syncing the
// table when the backhaul session comes up, and a route that lands
// in its view during the replay is sent by both the replay and the
// agent's route callback.
type fedWorkload struct {
	seed int64
	tbl  *table
	want map[netip.Prefix]*wire.Attrs
}

func newFederation(seed int64) *fedWorkload { return &fedWorkload{seed: seed} }

func (w *fedWorkload) generate() error {
	t, err := genTable(w.seed, fedPrefixes)
	if err != nil {
		return err
	}
	w.tbl = t
	w.want = make(map[netip.Prefix]*wire.Attrs, t.routes)
	for _, u := range t.upds {
		for _, n := range u.Reach {
			w.want[n.Prefix] = u.Attrs
		}
	}
	return nil
}

func (w *fedWorkload) aliases() map[string]string {
	return map[string]string{
		"converge_s":           "fed_converge_s: first UPDATE at the serving mux → every client at the other mux holds the table",
		"rate_per_s":           "routes ÷ first UPDATE → the mirrored Adj-RIB-In holds them",
		"p50_ms":               "route arrival after the first UPDATE, all clients",
		"p99_ms":               "route arrival after the first UPDATE, all clients",
		"client.join_sync_s":   "late client at the other mux connects → holds the federated table",
		"heap_bytes_per_route": "settled heap of both muxes ÷ prefixes",
	}
}

// fedConvergence reads the mesh's own dial → end-of-RIB histogram as
// its sum and count.
func fedConvergence(reg *telemetry.Registry) (sum, count float64) {
	for k, v := range promValues(reg) {
		switch {
		case strings.HasPrefix(k, "peering_federation_convergence_seconds_sum"):
			sum += v
		case strings.HasPrefix(k, "peering_federation_convergence_seconds_count"):
			count += v
		}
	}
	return sum, count
}

// backhaulBytes sums the bytes both directions of every backhaul link
// have carried.
func backhaulBytes(mesh *federation.Mesh) int64 {
	var n int64
	for _, lk := range mesh.Status().Links {
		n += lk.BytesFromA + lk.BytesFromB
	}
	return n
}

func (w *fedWorkload) rep(traced bool, base uint64) (*repResult, error) {
	res := &repResult{}
	want := w.tbl.routes
	start := time.Now()
	serving := newMux("serve01", 11, muxproto.ModeQuagga, nil, dampen.Config{})
	defer serving.Close()
	other := newMux("remote01", 12, muxproto.ModeQuagga, nil, dampen.Config{})
	defer other.Close()
	feed, err := attachSpeaker(serving, 1, w.tbl.peerAS, nil)
	if err != nil {
		return nil, err
	}
	defer feed.sess.Close()
	reg := telemetry.NewRegistry()
	mesh, err := federation.New(federation.Config{
		Members: []federation.Member{
			{Server: serving, RouterID: addr4(184, 164, 224, 11), Site: ixp.Site{Name: "serve01", Kind: ixp.SitePhysical}},
			{Server: other, RouterID: addr4(184, 164, 224, 12), Site: ixp.Site{Name: "remote01", Kind: ixp.SitePhysical}},
		},
		Allocation: []netip.Prefix{netip.MustParsePrefix("172.16.0.0/12")},
		Metrics:    reg,
	})
	if err != nil {
		return nil, err
	}
	defer mesh.Close()
	var mirror *server.Upstream
	for _, u := range other.Upstreams() {
		if u.Config().FedVia == "serve01" {
			mirror = u
		}
	}
	if mirror == nil {
		return nil, fmt.Errorf("no mirrored upstream at remote01")
	}
	mid := mirror.Config().ID
	// The serving agent sends end-of-RIB when its replay to the mirror
	// is done, and the mirror's import hook then books one convergence
	// sample: from then on every route crosses through the agent's
	// route callback alone.
	if _, ok := waitFor(time.Now().Add(waitLimit), func() bool { _, n := fedConvergence(reg); return n >= 1 }); !ok {
		return nil, fmt.Errorf("the backhaul session to remote01 never finished its replay")
	}
	var recv []*receiver
	var latches []*latch
	for i := 0; i <= fedCountOnly; i++ {
		r, err := connect(other, fmt.Sprintf("c%02d", i), i, i < fedCountOnly, nil, nil)
		if err != nil {
			return nil, err
		}
		defer r.cl.Close()
		recv, latches = append(recv, r), append(latches, r.arm(want))
	}
	res.setup = time.Since(start).Seconds()

	runtime.GC() // start the timed event on a collected heap
	before := snapServer(other)
	bytes0 := backhaulBytes(mesh)
	var hs *heapSampler
	if traced {
		hs = startHeapSampler()
	}
	t0 := time.Now()
	for _, r := range recv {
		r.t0.Store(t0.UnixNano())
	}
	if err := feed.sendAll(w.tbl.upds); err != nil {
		return nil, fmt.Errorf("feed: %w", err)
	}
	deadline := t0.Add(waitLimit)
	ingested, ok := waitFor(deadline, func() bool { return mirror.RoutesIn() >= want })
	if !ok {
		ingested = time.Now()
	}
	first, last, missed := waitAll(latches, deadline)
	for _, i := range missed {
		res.failed += want - recv[i].cl.TotalRouteCount()
	}
	peak := hs.finish()
	after := snapServer(other)
	bytes := backhaulBytes(mesh) - bytes0
	var lat []sample
	for _, r := range recv {
		r.t0.Store(0)
		lat = append(lat, r.takeSamples()...)
	}
	res.windows(lat)
	res.converge = []float64{last.Sub(t0).Seconds()}
	res.rate = []float64{float64(want) / ingested.Sub(t0).Seconds()}
	res.attempted += want * len(recv)

	joins, joiners, err := joinLate(other, fedCountOnly+1, want, lateJoins)
	for _, j := range joiners {
		defer j.cl.Close()
	}
	if err != nil {
		return nil, err
	}
	res.joins = joins
	res.attempted += want * lateJoins

	for _, r := range append(recv[:fedCountOnly:fedCountOnly], joiners...) {
		res.tally(r.cl.RouteCount(mid), want)
	}
	res.failed += compareView(recv[fedCountOnly].cl, mid, w.want)
	res.failed += shedFailures(serving) + shedFailures(other)

	recv[fedCountOnly].cl.Close()
	if base > 0 {
		res.heap = heapPerRoute(base, want)
	}
	if traced {
		l := serverLayers(before, after, len(recv), want)
		l["n.upd_in"], l["n.install"] = float64(len(w.tbl.upds)), float64(want)
		l["server.ingest_s"] = ingested.Sub(t0).Seconds()
		l["server.fanout_tail_s"] = last.Sub(ingested).Seconds()
		l["client.converge_spread_s"] = last.Sub(first).Seconds()
		l["go.heap_peak_bytes"] = float64(peak)
		l["federation.backhaul_bytes_per_route"] = float64(bytes) / float64(want)
		l["federation.convergence_s"] = ratio(fedConvergence(reg))
		res.layers = l
	}
	return res, nil
}

func (w *fedWorkload) isolated() (map[string]float64, error) {
	// The federated muxes run unfiltered; the policy passes show what
	// the compiled filter would cost on this table.
	return isolatedPasses(passInputs{
		trace:  w.tbl.trace,
		upds:   w.tbl.upds,
		filter: compiled.Compile(ruleSet(w.tbl, rand.New(rand.NewSource(w.seed)))),
		peer:   compiled.Peer{AS: w.tbl.peerAS},
	})
}
