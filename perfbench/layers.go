package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"peering/internal/bgp"
	"peering/internal/bufconn"
	"peering/internal/dampen"
	"peering/internal/mrt"
	"peering/internal/policy/compiled"
	"peering/internal/rib"
	"peering/internal/server"
	"peering/internal/wire"
)

// serverSnap is everything the benchmark reads from a mux around a
// timed event: its Stats, its telemetry registry, and the Go runtime's
// allocation and GC accounting.
type serverSnap struct {
	st   server.Stats
	prom map[string]float64
	mem  memSnap
}

func snapServer(srv *server.Server) serverSnap {
	return serverSnap{st: srv.Stats(), prom: promValues(srv.Telemetry()), mem: readMem()}
}

// serverLayers turns two snapshots into the per-layer counters of the
// event between them. routes is the event's route (or announcement)
// count; clients the receivers the mux fanned out to. Spans the caller
// does not overwrite stay 0: the workload never entered that layer.
func serverLayers(a, b serverSnap, clients, routes int) map[string]float64 {
	d := func(f func(server.Stats) uint64) float64 { return float64(f(b.st) - f(a.st)) }
	p := func(k string) float64 { return b.prom[k] - a.prom[k] }
	relayed := d(func(s server.Stats) uint64 { return s.RoutesRelayedToClients })
	updates := d(func(s server.Stats) uint64 { return s.UpdatesToClients })
	coalesced := d(func(s server.Stats) uint64 { return s.FanoutCoalesced })
	shared, private := p("peering_fanout_frames_shared_total"), p("peering_fanout_frames_private_total")
	return map[string]float64{
		"server.nlris_per_update":   ratio(relayed, updates),
		"server.updates_per_client": ratio(updates, float64(clients)),
		"server.shared_frame_ratio": ratio(shared, shared+private),
		"server.ingest_batch_mean":  ratio(p("peering_ingest_batch_size_sum"), p("peering_ingest_batch_size_count")),
		"server.coalesced_ratio":    ratio(coalesced, relayed+coalesced),
		"server.queue_high_water":   float64(b.st.FanoutQueueHighWater),
		"server.backpressure":       d(func(s server.Stats) uint64 { return s.FanoutBackpressure }),
		"server.blocked_hijack":     d(func(s server.Stats) uint64 { return s.HijacksBlocked }),
		"server.blocked_origin":     d(func(s server.Stats) uint64 { return s.OriginBlocked }),
		"server.blocked_policy":     d(func(s server.Stats) uint64 { return s.PolicyRejected }),
		"server.blocked_flap":       d(func(s server.Stats) uint64 { return s.FlapsSuppressed }),
		"go.gc_pause_ms":            float64(b.mem.pauseNs-a.mem.pauseNs) / 1e6,
		"go.alloc_bytes_per_route":  ratio(float64(b.mem.totalAlloc-a.mem.totalAlloc), float64(routes)),

		"server.ingest_s":                     0,
		"server.fanout_tail_s":                0,
		"client.converge_spread_s":            0,
		"bgp.feeder_send_us":                  0,
		"gen.late_p99_ms":                     0,
		"client.announce_call_us":             0,
		"go.heap_peak_bytes":                  0,
		"federation.backhaul_bytes_per_route": 0,
		"federation.convergence_s":            0,

		// Stage units of the event, for the unattributed share: NLRIs
		// the mux took in and relayed, UPDATEs it wrote to clients.
		"n.nlri_in":  d(func(s server.Stats) uint64 { return s.RoutesFromUpstreams }),
		"n.nlri_out": relayed,
		"n.upd_out":  updates,
	}
}

// shedFailures counts fan-out shedding and resyncs: with the queue cap
// disabled, either means a client lost routes.
func shedFailures(srv *server.Server) int {
	st := srv.Stats()
	return int(st.FanoutShed + st.FanoutResyncs)
}

// passInputs are a workload's own inputs for the isolated passes.
type passInputs struct {
	// trace is the MRT form of upds (nil: encoded here).
	trace []byte
	// upds are the UPDATEs the mux takes in, attributes interned.
	upds   []*wire.Update
	filter *compiled.Filter
	peer   compiled.Peer
}

// passReps is how often each isolated pass runs; the median is kept,
// so the first (cold) pass does not decide the figure.
const passReps = 3

// timed runs fn passReps times and returns the median duration.
func timed(fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < passReps; i++ {
		s := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(s)))
	}
	return time.Duration(median(ds)), nil
}

// isolatedPasses times each layer's public entry points over in, one
// layer at a time, and returns the per-unit costs.
func isolatedPasses(in passInputs) (map[string]float64, error) {
	opts := wire.Options{AS4: true}
	var nlris, reach, updates int
	for _, u := range in.upds {
		nlris += len(u.Reach) + len(u.Withdrawn)
		reach += len(u.Reach)
		if u.Attrs != nil {
			updates++
		}
	}
	out := map[string]float64{}

	// mrt: Reader.Next + ParseBGP4MP + Update per record.
	trace := in.trace
	if trace == nil {
		var err error
		if trace, err = encodeTrace(in.upds, in.peer.AS); err != nil {
			return nil, err
		}
	}
	records := 0
	d, err := timed(func() error {
		records = 0
		r := mrt.NewReader(bytes.NewReader(trace))
		for {
			rec, err := r.Next()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			m, err := mrt.ParseBGP4MP(rec)
			if err != nil {
				return err
			}
			if _, err := m.Update(); err != nil {
				return err
			}
			records++
		}
	})
	if err != nil {
		return nil, fmt.Errorf("mrt pass: %w", err)
	}
	out["mrt.decode_ns_per_record"] = ratio(float64(d), float64(records))

	// wire: decode each UPDATE as the session reader does.
	msgs := make([][]byte, len(in.upds))
	for i, u := range in.upds {
		if msgs[i], err = wire.Marshal(u, opts); err != nil {
			return nil, err
		}
	}
	decoded := make([]*wire.Update, len(msgs))
	d, err = timed(func() error {
		for i, b := range msgs {
			m, err := wire.Decode(b, opts)
			if err != nil {
				return err
			}
			decoded[i], _ = m.(*wire.Update)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("wire decode pass: %w", err)
	}
	out["wire.decode_ns_per_nlri"] = ratio(float64(d), float64(nlris))

	// wire: intern each decoded attribute set into a fresh table.
	var hits, misses uint64
	d, err = timed(func() error {
		t := wire.NewInternTable()
		for _, u := range decoded {
			if u != nil && u.Attrs != nil {
				t.Intern(u.Attrs)
			}
		}
		hits, misses = t.Stats()
		return nil
	})
	out["wire.intern_ns_per_update"] = ratio(float64(d), float64(updates))
	out["wire.intern_hit_ratio"] = ratio(float64(hits), float64(hits+misses))

	// policy: one verdict per announced NLRI, one path verdict per
	// UPDATE.
	d, _ = timed(func() error {
		for _, u := range in.upds {
			for _, n := range u.Reach {
				in.filter.Verdict(n.Prefix, u.Attrs, in.peer)
			}
		}
		return nil
	})
	out["policy.verdict_ns"] = ratio(float64(d), float64(reach))
	d, _ = timed(func() error {
		for _, u := range in.upds {
			in.filter.VerdictPath(u.Attrs, in.peer)
		}
		return nil
	})
	out["policy.verdict_path_ns"] = ratio(float64(d), float64(updates))

	// dampen: one flap per announced NLRI into a fresh damper.
	src := addr4(10, 250, 0, 1)
	d, _ = timed(func() error {
		dm := dampen.New(dampen.DefaultConfig(), nil)
		for _, u := range in.upds {
			for _, n := range u.Reach {
				dm.RecordFlap(dampen.Key{Prefix: n.Prefix, Source: src})
			}
		}
		return nil
	})
	out["dampen.record_ns"] = ratio(float64(d), float64(reach))

	// rib: install per shard, one Update call per shard as the ingest
	// workers do.
	shards := rib.ShardCount(0)
	byShard := make([][]*rib.Route, shards)
	probe := rib.NewShardedAdj(shards)
	peerAddr := addr4(80, 249, 208, 1)
	for _, u := range in.upds {
		for _, n := range u.Reach {
			i := probe.ShardOf(n.Prefix)
			byShard[i] = append(byShard[i], &rib.Route{Prefix: n.Prefix, Attrs: u.Attrs,
				Src: rib.PeerKey{Addr: peerAddr}, PeerAS: in.peer.AS, EBGP: true})
		}
	}
	install := func() *rib.ShardedAdj {
		t := rib.NewShardedAdj(shards)
		for i, rs := range byShard {
			t.Update(i, func(a *rib.AdjRIB) {
				for _, r := range rs {
					a.Set(r)
				}
			})
		}
		return t
	}
	d, _ = timed(func() error { install(); return nil })
	out["rib.install_ns_per_route"] = ratio(float64(d), float64(reach))
	base := settledHeap()
	kept := install()
	out["rib.bytes_per_route"] = heapPerRoute(base, reach)
	runtime.KeepAlive(kept)

	// wire: pack and encode each UPDATE's routes as the fan-out does.
	var buf []byte
	d, err = timed(func() error {
		for _, u := range in.upds {
			groups := []wire.AttrGroup{{Attrs: u.Attrs, NLRIs: u.Reach}}
			if u.Attrs == nil {
				groups = nil
			}
			for _, p := range wire.PackGrouped(u.Withdrawn, groups, opts) {
				var err error
				if buf, err = wire.AppendMessage(buf[:0], p, opts); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("encode pass: %w", err)
	}
	out["wire.encode_ns_per_nlri"] = ratio(float64(d), float64(nlris))

	wns, err := writePass(in.upds)
	if err != nil {
		return nil, fmt.Errorf("write pass: %w", err)
	}
	out["bgp.write_ns_per_update"] = wns
	return out, nil
}

// writePass sends upds over an established bgp.Session to a sink
// session and returns the wall time per UPDATE until the sink has
// them all.
func writePass(upds []*wire.Update) (float64, error) {
	a, b := bufconn.Pipe()
	est := make(chan struct{}, 2)
	onEst := func(*bgp.Session) { est <- struct{}{} }
	var got int
	done := newLatch()
	sink := bgp.New(b, bgp.Config{LocalAS: 65002, LocalID: addr4(10, 0, 0, 2), PeerAS: 65001, Describe: "write-sink"},
		bgp.HandlerFuncs{OnEstablished: onEst, OnUpdate: func(_ *bgp.Session, u *wire.Update) {
			if got++; got == len(upds) {
				done.fire()
			}
		}})
	src := bgp.New(a, bgp.Config{LocalAS: 65001, LocalID: addr4(10, 0, 0, 1), PeerAS: 65002, Describe: "write-source"},
		bgp.HandlerFuncs{OnEstablished: onEst})
	go sink.Run()
	go src.Run()
	defer func() {
		src.Close()
		sink.Close()
		<-src.Done()
		<-sink.Done()
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-est:
		case <-time.After(waitLimit):
			return 0, errors.New("write-pass sessions not established")
		}
	}
	start := time.Now()
	for _, u := range upds {
		if err := src.Send(u); err != nil {
			return 0, err
		}
	}
	at, ok := done.wait(start.Add(waitLimit))
	if !ok {
		return 0, errors.New("write-pass sink did not receive every UPDATE")
	}
	return float64(at.Sub(start)) / float64(len(upds)), nil
}

// encodeTrace writes upds as the MRT BGP4MP stream an upstream with
// peerAS would have produced.
func encodeTrace(upds []*wire.Update, peerAS uint32) ([]byte, error) {
	opts := wire.Options{AS4: true}
	var out []byte
	ts := time.Date(2014, 10, 27, 0, 0, 0, 0, time.UTC)
	for _, u := range upds {
		msg, err := wire.Marshal(u, opts)
		if err != nil {
			return nil, err
		}
		rec, err := (&mrt.BGP4MP{PeerAS: peerAS, LocalAS: testbedASN,
			PeerIP: addr4(10, 0, 0, 1), LocalIP: addr4(10, 0, 0, 2), Message: msg, AS4: true}).Record(ts, true)
		if err != nil {
			return nil, err
		}
		if out, err = rec.AppendTo(out); err != nil {
			return nil, err
		}
		ts = ts.Add(time.Millisecond)
	}
	return out, nil
}
