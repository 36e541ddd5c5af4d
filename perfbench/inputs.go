package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"sort"

	"peering/internal/internet"
	"peering/internal/mrt"
	"peering/internal/policy/compiled"
	"peering/internal/wire"
)

// table is a generated routing table as one upstream announces it.
type table struct {
	peerAS uint32
	trace  []byte         // MRT BGP4MP stream of upds
	upds   []*wire.Update // decoded from trace, attributes interned
	routes int
}

// genTable generates an Internet of about n prefixes from seed and
// serializes it as the MRT trace its first tier-1 would send. Like
// internet.FullTableSpec, it keeps about 14 prefixes per AS, which
// sets how many NLRIs share one attribute set and so one UPDATE.
func genTable(seed int64, n int) (*table, error) {
	ases := max(600, n/14)
	g := internet.Generate(internet.Spec{
		Seed: seed, ASes: ases, Tier1s: 8, Transits: ases / 30,
		CDNs: 10, Contents: 30, Prefixes: n,
	})
	var buf bytes.Buffer
	st, err := internet.WriteTrace(&buf, g, internet.TraceConfig{})
	if err != nil {
		return nil, err
	}
	t := &table{trace: buf.Bytes()}
	intern := wire.NewInternTable()
	r := mrt.NewReader(bytes.NewReader(t.trace))
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		m, err := mrt.ParseBGP4MP(rec)
		if err != nil {
			return nil, err
		}
		u, err := m.Update()
		if err != nil {
			return nil, err
		}
		t.peerAS = m.PeerAS
		u.Attrs = intern.Intern(u.Attrs)
		t.upds = append(t.upds, u)
		t.routes += len(u.Reach)
	}
	if t.routes != st.Routes {
		return nil, fmt.Errorf("trace decodes to %d routes, generator wrote %d", t.routes, st.Routes)
	}
	return t, nil
}

// ruleSet derives a compiled rule set from t in which every rule family
// rejects a few percent of the table: denied prefixes, ROA-invalid
// origins, one Peerlock adjacency, and one Peerlock-lite AS. The
// client-direction Peerlock rule for AS 174 rides along for announce.
func ruleSet(t *table, rng *rand.Rand) *compiled.RuleSet {
	rs := &compiled.RuleSet{
		Peerlock: []compiled.PeerlockRule{{Protected: 174, Allowed: []uint32{3356, 2914, 1299}}},
	}
	// How many routes carry each AS (after the announcing peer), and
	// each adjacency of it.
	carries := map[uint32]int{}
	adj := map[[2]uint32]int{}
	for _, u := range t.upds {
		path := u.Attrs.ASList()
		for i := 1; i < len(path); i++ {
			carries[path[i]] += len(u.Reach)
			adj[[2]uint32{path[i-1], path[i]}] += len(u.Reach)
			adj[[2]uint32{path[i], path[i-1]}] += len(u.Reach)
		}
	}
	closest := func(share float64, skip uint32) uint32 {
		var best uint32
		bestD := 2.0
		for as, n := range carries {
			d := float64(n)/float64(t.routes) - share
			if d < 0 {
				d = -d
			}
			if as != skip && (d < bestD || d == bestD && as < best) {
				best, bestD = as, d
			}
		}
		return best
	}
	protected := closest(0.05, 0)
	var nbrs []uint32
	for k := range adj {
		if k[0] == protected {
			nbrs = append(nbrs, k[1])
		}
	}
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
	if len(nbrs) > 1 {
		// Drop the neighbour whose adjacency carries the fewest routes:
		// those paths become Peerlock leaks.
		drop := 0
		for i, n := range nbrs {
			if adj[[2]uint32{protected, n}] < adj[[2]uint32{protected, nbrs[drop]}] {
				drop = i
			}
		}
		rs.Peerlock = append(rs.Peerlock, compiled.PeerlockRule{
			Protected: protected,
			Allowed:   append(append([]uint32(nil), nbrs[:drop]...), nbrs[drop+1:]...),
		})
	}
	rs.NoTransit = []uint32{closest(0.015, protected)}
	for _, u := range t.upds {
		origin := u.Attrs.OriginAS()
		for _, n := range u.Reach {
			switch x := rng.Float64(); {
			case x < 0.01:
				rs.Prefixes = append(rs.Prefixes, compiled.PrefixRule{Prefix: n.Prefix})
			case x < 0.02:
				rs.Origins = append(rs.Origins, compiled.OriginRule{Prefix: n.Prefix, Origin: origin})
			case x < 0.03:
				rs.Origins = append(rs.Origins, compiled.OriginRule{Prefix: n.Prefix, Origin: origin + 100000})
			}
		}
	}
	return rs
}

// accepted applies f to t as the mux sees it from a non-transit peer,
// returning the table every client must end with.
func accepted(t *table, f *compiled.Filter) map[netip.Prefix]*wire.Attrs {
	out := make(map[netip.Prefix]*wire.Attrs, t.routes)
	peer := compiled.Peer{AS: t.peerAS}
	for _, u := range t.upds {
		for _, n := range u.Reach {
			if f.Verdict(n.Prefix, u.Attrs, peer).Accept {
				out[n.Prefix] = u.Attrs
			}
		}
	}
	return out
}
