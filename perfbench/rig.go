package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"peering/internal/bgp"
	"peering/internal/bufconn"
	"peering/internal/client"
	"peering/internal/dampen"
	"peering/internal/muxproto"
	"peering/internal/policy/compiled"
	"peering/internal/server"
	"peering/internal/wire"
)

// testbedASN is the mux's AS; every upstream speaker expects it.
const testbedASN = 47065

// waitLimit bounds every wait for a delivery. Anything still missing
// then is counted as failed, not as slow.
const waitLimit = 20 * time.Second

func addr4(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }

// newMux builds one mux with its fan-out queue cap disabled: every
// workload carries its whole table through the queues, and a shed
// would be a failed delivery, not a configuration choice.
func newMux(site string, idx byte, mode muxproto.Mode, rs *compiled.RuleSet, damp dampen.Config) *server.Server {
	return server.New(server.Config{
		Site:      site,
		ASN:       testbedASN,
		RouterID:  addr4(184, 164, 224, idx),
		Mode:      mode,
		Quota:     server.QuotaConfig{MaxQueueOps: -1},
		Policy:    rs,
		Dampening: damp,
	})
}

// speaker is the upstream end of one mux peering: a real bgp.Session
// over a bufconn pipe, used as a feeder (it sends) or a sink (it
// records what the mux announces).
type speaker struct {
	up   *server.Upstream
	sess *bgp.Session
}

// attachSpeaker registers upstream id at srv and brings its session
// up. onUpdate, if set, sees every UPDATE the mux sends upstream.
func attachSpeaker(srv *server.Server, id, asn uint32, onUpdate func(*wire.Update)) (*speaker, error) {
	up, err := srv.AddUpstream(server.UpstreamConfig{
		ID: id, Name: fmt.Sprintf("up%d-as%d", id, asn), ASN: asn,
		PeerAddr:  addr4(80, 249, 208, byte(id)),
		LocalAddr: addr4(80, 249, 208, 200),
	})
	if err != nil {
		return nil, fmt.Errorf("add upstream %d: %w", id, err)
	}
	muxEnd, peerEnd := bufconn.Pipe()
	srv.AttachUpstream(up, muxEnd)
	established := make(chan struct{})
	var once sync.Once
	h := bgp.HandlerFuncs{OnEstablished: func(*bgp.Session) { once.Do(func() { close(established) }) }}
	if onUpdate != nil {
		h.OnUpdate = func(_ *bgp.Session, u *wire.Update) { onUpdate(u) }
	}
	sess := bgp.New(peerEnd, bgp.Config{
		LocalAS: asn, LocalID: addr4(4, 69, 0, byte(id)), PeerAS: testbedASN,
		Describe: fmt.Sprintf("bench-upstream-%d", id),
	}, h)
	go sess.Run()
	select {
	case <-established:
	case <-sess.Done():
		return nil, fmt.Errorf("upstream %d session closed during handshake: %v", id, sess.Err())
	case <-time.After(waitLimit):
		sess.Close()
		return nil, fmt.Errorf("upstream %d not established", id)
	}
	return &speaker{up: up, sess: sess}, nil
}

// sendAll sends upds on the speaker's session, stopping at the first
// error.
func (s *speaker) sendAll(upds []*wire.Update) error {
	for _, u := range upds {
		if err := s.sess.Send(u); err != nil {
			return err
		}
	}
	return nil
}

// latch fires once and remembers when.
type latch struct {
	ch   chan struct{}
	once sync.Once
	at   atomic.Int64
}

func newLatch() *latch { return &latch{ch: make(chan struct{})} }

func (l *latch) fire() {
	l.once.Do(func() {
		l.at.Store(time.Now().UnixNano())
		close(l.ch)
	})
}

// wait blocks until the latch fires or the deadline passes, returning
// the firing time and whether it fired.
func (l *latch) wait(deadline time.Time) (time.Time, bool) {
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-l.ch:
		return time.Unix(0, l.at.Load()), true
	case <-t.C:
		return time.Time{}, false
	}
}

// receiver is one client of a mux. Completion is signalled from the
// client's OnRoute callback: after each UPDATE the receiver re-reads
// the client's own route tally and fires its latch once the tally
// reaches the target, so no one polls.
type receiver struct {
	cl *client.Client

	mu     sync.Mutex
	target int
	done   *latch
	// t0 (unix ns) stamps the timed event; each UPDATE arriving after
	// it adds one latency sample weighted by its NLRI count.
	t0      atomic.Int64
	samples []sample
	// hook, when set, sees every UPDATE before the tally check (the
	// churn workload's per-prefix bookkeeping).
	hook func(*wire.Update)
}

// account registers a client account at srv. Allocations are /24s in
// 172.16.0.0/12 unless alloc overrides them.
func account(srv *server.Server, id string, idx int, alloc []netip.Prefix) error {
	if alloc == nil {
		alloc = []netip.Prefix{netip.PrefixFrom(addr4(172, byte(16+idx/256), byte(idx), 0), 24)}
	}
	return srv.RegisterClient(server.ClientAccount{
		ID: id, Allocation: alloc,
		TunnelAddr: addr4(10, 250, byte(idx/250), byte(1+idx%250)),
	})
}

// connect registers and attaches a client, returning once every BGP
// session it is provisioned for is established. hook, if set, sees
// every UPDATE the client receives.
func connect(srv *server.Server, id string, idx int, countOnly bool, alloc []netip.Prefix, hook func(*wire.Update)) (*receiver, error) {
	if err := account(srv, id, idx, alloc); err != nil {
		return nil, fmt.Errorf("register %s: %w", id, err)
	}
	muxEnd, clientEnd := bufconn.Pipe()
	if err := srv.AcceptClient(id, muxEnd); err != nil {
		return nil, fmt.Errorf("accept %s: %w", id, err)
	}
	cl, err := client.Connect(client.Config{
		Name: id, RouterID: addr4(10, 250, byte(idx/250), byte(1+idx%250)), CountOnly: countOnly,
	}, clientEnd)
	if err != nil {
		return nil, fmt.Errorf("connect %s: %w", id, err)
	}
	r := &receiver{cl: cl, hook: hook}
	cl.OnRoute(r.onRoute)
	if err := cl.WaitEstablished(waitLimit); err != nil {
		cl.Close()
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	return r, nil
}

// arm sets the tally the latch fires at and checks it once, covering
// UPDATEs that landed before arming.
func (r *receiver) arm(target int) *latch {
	l := newLatch()
	r.mu.Lock()
	r.target, r.done = target, l
	r.mu.Unlock()
	r.check()
	return l
}

func (r *receiver) check() {
	r.mu.Lock()
	target, l := r.target, r.done
	r.mu.Unlock()
	if l != nil && r.cl.TotalRouteCount() >= target {
		l.fire()
	}
}

func (r *receiver) onRoute(_ uint32, u *wire.Update) {
	if t0 := r.t0.Load(); t0 != 0 && len(u.Reach) > 0 {
		d := time.Since(time.Unix(0, t0))
		r.mu.Lock()
		r.samples = append(r.samples, sample{ms: ms(d), w: float64(len(u.Reach))})
		r.mu.Unlock()
	}
	if r.hook != nil {
		r.hook(u)
	}
	r.check()
}

// takeSamples returns and clears the receiver's latency samples.
func (r *receiver) takeSamples() []sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.samples
	r.samples = nil
	return s
}

// compareView checks a full-view client's routes from upstream id
// attribute for attribute against want, returning the number of
// missing, extra, or differing routes.
func compareView(cl *client.Client, id uint32, want map[netip.Prefix]*wire.Attrs) int {
	bad := 0
	seen := 0
	for _, r := range cl.Routes(id) {
		w, ok := want[r.Prefix]
		if !ok || !w.Equal(r.Attrs) {
			bad++
			continue
		}
		seen++
	}
	return bad + len(want) - seen
}

// pollEvery is waitFor's interval: fine enough that a few-millisecond
// set-up is not rounded up to whole poll periods. It waits on a Go
// timer, which fires about on time while the mux keeps the process
// busy, and holds no processor while it waits.
const pollEvery = 200 * time.Microsecond

// waitFor polls cond every pollEvery. It is used only where the
// program offers no event to wait on (the size of an upstream's
// Adj-RIB-In, a count in a telemetry registry), and returns the time
// cond first held.
func waitFor(deadline time.Time, cond func() bool) (time.Time, bool) {
	for {
		if cond() {
			return time.Now(), true
		}
		if time.Now().After(deadline) {
			return time.Time{}, false
		}
		time.Sleep(pollEvery)
	}
}

// sleep waits d with nanosleep. An idle Go program's timers fire up to
// milliseconds late on a small VM; nanosleep's slop is tens of
// microseconds. A signal can end the sleep early (EINTR); it sleeps
// again.
func sleep(d time.Duration) {
	for until := time.Now().Add(d); d > 0; d = time.Until(until) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// waitAll waits for every latch, returning the first and last firing
// times and the indexes of latches that never fired.
func waitAll(ls []*latch, deadline time.Time) (first, last time.Time, missed []int) {
	for i, l := range ls {
		at, ok := l.wait(deadline)
		if !ok {
			missed = append(missed, i)
			continue
		}
		if first.IsZero() || at.Before(first) {
			first = at
		}
		if at.After(last) {
			last = at
		}
	}
	return first, last, missed
}

// lateJoins is how many clients join each converged mux, one after
// another, where the table is small enough that a join is cheap.
const lateJoins = 3

// joinLate connects n count-only clients to srv in turn, from index
// idx on, timing each from connect until its tally reaches want.
// The caller closes the returned receivers. A join that never reaches
// want adds no time; the caller's count check reports it.
func joinLate(srv *server.Server, idx, want, n int) ([]float64, []*receiver, error) {
	var times []float64
	var rs []*receiver
	runtime.GC()
	for j := 0; j < n; j++ {
		start := time.Now()
		r, err := connect(srv, fmt.Sprintf("join%d", j), idx+j, true, nil, nil)
		if err != nil {
			return times, rs, err
		}
		rs = append(rs, r)
		if at, ok := r.arm(want).wait(start.Add(waitLimit)); ok {
			times = append(times, at.Sub(start).Seconds())
		}
	}
	return times, rs, nil
}

// openLoop calls send(i) for i in [0, n), op i due at t0 + i×interval
// whether or not the mux kept up, and returns each op's lateness. The
// generator waits with nanosleep on a locked OS thread, so the host's
// timer slop stays out of every open-loop latency, and never spins.
func openLoop(t0 time.Time, n int, interval time.Duration, send func(i int) error) ([]sample, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	late := make([]sample, n)
	for i := range late {
		due := t0.Add(time.Duration(i) * interval)
		sleep(time.Until(due))
		late[i] = sample{ms: ms(time.Since(due)), w: 1}
		if err := send(i); err != nil {
			return nil, err
		}
	}
	return late, nil
}
