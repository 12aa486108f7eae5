package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// stack is an in-process simd laid out as cmd/simd lays it out: a
// content-addressed store and the engine's JSONL journal in one data
// directory, served over loopback.
type stack struct {
	dir   string
	store *serve.Store
	eng   *sim.Engine
	srv   *serve.Server
	ts    *httptest.Server
}

// reqHeader carries the client span's id to the handler wrapper, so
// both spans of one request share a request id.
const reqHeader = "X-Bench-Req"

func newStack(opts sim.Options, tr *tracer) (*stack, error) {
	dir, err := os.MkdirTemp("", "simd-")
	if err != nil {
		return nil, err
	}
	store, err := serve.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	opts.Journal = filepath.Join(dir, "engine.jsonl")
	eng := sim.NewEngine(opts)
	srv, err := serve.New(serve.Config{Store: store, Engine: eng})
	if err != nil {
		eng.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	ts := httptest.NewUnstartedServer(wrapHandler(srv, tr))
	// The fault probe makes handlers panic; net/http recovers them and
	// would log a stack trace per panic.
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	return &stack{dir: dir, store: store, eng: eng, srv: srv, ts: ts}, nil
}

// close shuts the stack down and removes its data directory. Shutdown
// is bounded: a handler that never returns is reported, not waited for.
func (s *stack) close() error {
	s.srv.Close()
	done := make(chan struct{})
	go func() {
		s.ts.Close()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		err = errors.New("server did not shut down within 10s")
	}
	if cerr := s.eng.Close(); cerr != nil && err == nil {
		err = cerr
	}
	os.RemoveAll(s.dir)
	return err
}

// tapWriter remembers the status a handler wrote.
type tapWriter struct {
	http.ResponseWriter
	status int
}

func (w *tapWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// wrapHandler records a "handler" span around Server.ServeHTTP, tagged
// with the answering tier (or the status of a refused request).
func wrapHandler(srv *serve.Server, tr *tracer) http.Handler {
	if tr == nil {
		return srv
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		sp := tr.start("handler", req, req)
		tw := &tapWriter{ResponseWriter: w, status: http.StatusOK}
		srv.ServeHTTP(tw, r)
		tag := w.Header().Get("X-Cache")
		if tw.status != http.StatusOK {
			tag = strconv.Itoa(tw.status)
		}
		tr.end(sp, tag)
	})
}

// measureSetup constructs the service stack setupPerRep times, each in
// a fresh data directory with the workload's options, and adds the
// construction times, in seconds and scaled by the file-system gauge,
// to b.setup. Untraced runs call it after every repetition, so the
// samples spread over the whole run and its swings in host speed:
// taken in one burst at the start, a run's median depended on the
// moment and spread across five runs by 0.8 of itself (IQR/median).
func measureSetup(ctx context.Context, b *bench, w workloadDef) error {
	if b.traced {
		return nil
	}
	from := len(b.setup)
	b.gauges.fs.begin()
	for i := 0; i < setupPerRep; i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		t0 := time.Now()
		st, err := newStack(w.opts(1), nil)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		if err := st.close(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.setup = append(b.setup, d.Seconds())
	}
	b.setup.scale(from, b.gauges.fs.end())
	return b.gauges.fs.err
}

// ---- request mix ----

// Tiers a request is planned to be answered from.
const (
	tierHit       = "hit"
	tierMiss      = "miss"
	tierCollapsed = "collapsed"
	tierReject    = "reject"
)

type request struct {
	key  int // index into the universe; -1 for a refused request
	body []byte
	tier string
}

// round is one closed-loop round: both clients start together and each
// sends its requests in order, the next after the previous answer. A
// key's first request in a round comes from one client only, so every
// request's tier is fixed by the mix. In a pair round both clients
// open with the same new key: client 1 sends it once the engine has
// started simulating client 0's copy, so it collapses.
type round struct {
	reqs [2][]request
	pair bool
}

type mix struct {
	universe []sim.Spec
	rounds   []round
	counts   map[string]int
}

// variants are the override sets the service mix draws from.
var variants = []sim.Overrides{
	{},
	{Bpred: "tage"},
	{Prefetch: "stride"},
	{Check: core.CheckCheap},
}

// serveUniverse is benches × schemes × widths × variants, ordered by
// popularity: the paper's Table 4 specs (PosSel, 4-wide, default
// frontend) first, then everything else in a seeded random order.
func serveUniverse(rng *rand.Rand) []sim.Spec {
	var head, rest []sim.Spec
	for _, bench := range workload.Benchmarks {
		for _, s := range core.Schemes() {
			for _, w8 := range []bool{false, true} {
				for _, v := range variants {
					spec := sim.Spec{Bench: bench, Wide8: w8, Scheme: s, Over: v}
					if s == core.PosSel && !w8 && v == (sim.Overrides{}) {
						head = append(head, spec)
					} else {
						rest = append(rest, spec)
					}
				}
			}
		}
	}
	rng.Shuffle(len(head), func(i, j int) { head[i], head[j] = head[j], head[i] })
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return append(head, rest...)
}

// mixShape sizes a mix.
type mixShape struct {
	rounds, perClient int
	misses            int     // first-time keys per repetition, collapse pairs included
	zipf              float64 // popularity exponent
	pairProb          float64 // chance a round opens with a collapse pair
	rejectProb        float64 // chance a request is one the front door refuses
}

var serveShape = mixShape{rounds: 15, perClient: 20, misses: 42, zipf: 1.7, pairProb: 0.2, rejectProb: 0.02}

// rejectBodies are requests the front door already refuses with 400.
var rejectBodies = []string{
	`{"spec":{"bench":"nosuch","scheme":"PosSel"}}`,
	`{"spec":{"bench":"gcc","scheme":"NoSuchScheme"}}`,
	`{"spec":{"bench":"gcc","scheme":"PosSel","over":{"bpred":"perceptron"}}}`,
	`{"spec":{"bench":"gcc","scheme":"PosSel"},"insts":7}`,
}

// newMix draws one repetition's requests over universe from rng.
func newMix(rng *rand.Rand, universe []sim.Spec, sh mixShape) (*mix, error) {
	cdf := make([]float64, len(universe))
	var total float64
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), sh.zipf)
		cdf[i] = total
	}
	draw := func() int {
		x := rng.Float64() * total
		lo, hi := 0, len(cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	bodies := make([][]byte, len(universe))
	for i, s := range universe {
		b, err := json.Marshal(api.RunRequest{Spec: api.FromSimSpec(s)})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}

	m := &mix{universe: universe, counts: make(map[string]int)}
	// seenRound/seenBy record where each key was first asked for; -1 in
	// seenBy marks a collapse pair (both clients).
	seenRound := make(map[int]int)
	seenBy := make(map[int]int)
	rejects, misses := 0, 0
	for k := 0; k < sh.rounds; k++ {
		var rd round
		if rng.Float64() < sh.pairProb && misses < sh.misses {
			for try := 0; try < 64; try++ {
				x := draw()
				if _, seen := seenRound[x]; !seen {
					misses++
					seenRound[x], seenBy[x] = k, -1
					rd.pair = true
					rd.reqs[0] = append(rd.reqs[0], request{x, bodies[x], tierMiss})
					rd.reqs[1] = append(rd.reqs[1], request{x, bodies[x], tierCollapsed})
					break
				}
			}
		}
		for c := 0; c < 2; c++ {
			for len(rd.reqs[c]) < sh.perClient {
				if rng.Float64() < sh.rejectProb {
					body := rejectBodies[rejects%len(rejectBodies)]
					rejects++
					rd.reqs[c] = append(rd.reqs[c], request{-1, []byte(body), tierReject})
					continue
				}
				x := draw()
				r, seen := seenRound[x]
				switch {
				case !seen && misses < sh.misses:
					misses++
					seenRound[x], seenBy[x] = k, c
					rd.reqs[c] = append(rd.reqs[c], request{x, bodies[x], tierMiss})
				case seen && (r < k || seenBy[x] == c || seenBy[x] == -1):
					rd.reqs[c] = append(rd.reqs[c], request{x, bodies[x], tierHit})
				default:
					// Either a new key beyond the repetition's misses, or
					// one first asked for by the other client in this
					// round, whose tier would depend on timing. Draw again.
				}
			}
		}
		for c := range rd.reqs {
			for _, r := range rd.reqs[c] {
				m.counts[r.tier]++
			}
		}
		m.rounds = append(m.rounds, rd)
	}
	if m.counts[tierMiss] != sh.misses || m.counts[tierHit] == 0 {
		return nil, fmt.Errorf("mix has %d misses and %d hits", m.counts[tierMiss], m.counts[tierHit])
	}
	return m, nil
}

// ---- one repetition ----

type answer struct {
	tier    string
	latency time.Duration
}

// serveOut aggregates serve repetitions.
type serveOut struct {
	reps      int
	timedSec  samples // per repetition
	reqPerS   samples // per repetition
	kips      samples // per repetition
	missMS    samples
	hitUS     samples
	ipcErr    samples
	counts    map[string]int
	runs      int64 // engine runs, from /v1/info
	execSec   float64
	journalB  int64
	results   map[string][]byte // one body per key and seed, for the api probe
	distinct  []*sim.RunOut
	distOpts  []sim.Options
	heapMiB   samples // per repetition
	lastStack *stack

	// From handler spans, when traced.
	handlerHitUS   samples
	rejectUS       samples
	missOverheadMS samples
}

// attributeSpans records the repetition's simulations as sim.exec
// spans under the miss handler each one served (the first miss handler
// to finish after it) and collects the per-tier handler timings.
func (out *serveOut) attributeSpans(spans []span, execs [][2]time.Time, tr *tracer) {
	var misses []span
	for _, s := range spans {
		if s.Name != "handler" {
			continue
		}
		switch s.Tag {
		case tierHit:
			out.handlerHitUS = append(out.handlerHitUS, float64(s.dur())/1e3)
		case tierMiss:
			misses = append(misses, s)
		case strconv.Itoa(http.StatusBadRequest):
			out.rejectUS = append(out.rejectUS, float64(s.dur())/1e3)
		}
	}
	for _, e := range execs {
		es := span{Name: "sim.exec", Start: tr.at(e[0]), End: tr.at(e[1])}
		var owner *span
		for i := range misses {
			h := &misses[i]
			if h.Start <= es.Start && h.End >= es.End && (owner == nil || h.End < owner.End) {
				owner = h
			}
		}
		if owner != nil {
			es.Parent, es.Req = owner.ID, owner.Req
			out.missOverheadMS = append(out.missOverheadMS, float64(owner.dur()-es.dur())/1e6)
		}
		tr.record(es)
	}
}

func (out *serveOut) e2e(setup samples) endToEnd {
	return endToEnd{
		setup: setup, kips: out.kips, reqPerS: out.reqPerS,
		missMS: out.missMS, hitUS: out.hitUS, ipcErr: out.ipcErr, heapMiB: out.heapMiB.mean(),
	}
}

func newServeOut() *serveOut {
	return &serveOut{counts: make(map[string]int), results: make(map[string][]byte)}
}

// serveRep runs one repetition on a fresh stack: the mix from two
// closed-loop clients, then the output gate. The stack is returned
// open when keep is set (the caller probes and closes it).
func serveRep(ctx context.Context, b *bench, opts sim.Options, m *mix, tr *tracer, out *serveOut, keep bool) (err error) {
	ctx, cancel := context.WithTimeout(ctx, repDeadline)
	defer cancel()
	trk := newExecTracker()
	opts.OnProgress = trk.onProgress
	st, err := newStack(opts, tr)
	if err != nil {
		return err
	}
	defer func() {
		if !keep || err != nil {
			if cerr := st.close(); cerr != nil {
				b.op(cerr)
			}
		}
	}()
	hc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer hc.CloseIdleConnections()
	client := api.NewClient(st.ts.URL, sim.Options{})

	mark := 0
	if tr != nil {
		mark = tr.len()
	}
	b.gauges.cpu.begin()
	root := tr.start("rep", 0, 0)
	trk.arm()
	t0 := time.Now()
	var mu sync.Mutex
	var answers []answer
	bodies := make(map[int][]byte)
	var firstErr error
	for _, rd := range m.rounds {
		base := trk.startCount()
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for j, rq := range rd.reqs[c] {
					if j == 0 && rd.pair && c == 1 {
						if err := trk.waitStarts(ctx, base+1); err != nil {
							b.op(err)
							return
						}
					}
					a, body, err := send(ctx, hc, st.ts.URL, rq, tr, root.ID)
					mu.Lock()
					if err == nil && rq.key >= 0 {
						if prev, ok := bodies[rq.key]; !ok {
							bodies[rq.key] = body
						} else if !bytes.Equal(prev, body) {
							err = fmt.Errorf("key %d answered with different bytes", rq.key)
						}
					}
					if err == nil {
						answers = append(answers, a)
					} else if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					b.op(err)
				}
			}(c)
		}
		wg.Wait()
	}
	elapsed := time.Since(t0)
	execs, _ := trk.disarm()
	tr.end(root, "")
	f := b.gauges.cpu.end()
	if firstErr != nil {
		return firstErr
	}

	for _, a := range answers {
		switch a.tier {
		case tierMiss:
			out.missMS = append(out.missMS, f*ms(a.latency))
		case tierHit:
			out.hitUS = append(out.hitUS, f*us(a.latency))
		}
	}
	for _, e := range execs {
		out.execSec += e[1].Sub(e[0]).Seconds()
	}
	if tr != nil {
		out.attributeSpans(tr.since(mark), execs, tr)
	}
	info, err := client.Info(ctx)
	b.op(err)
	if err != nil {
		return err
	}
	p := info.Progress
	b.op(expectCounts(m.counts, p))
	insts := p.EngineRuns * (opts.Warmup + opts.Insts)
	out.runs += p.EngineRuns
	if fi, err := os.Stat(filepath.Join(st.dir, "engine.jsonl")); err == nil {
		out.journalB += fi.Size()
	}
	for tier, n := range m.counts {
		out.counts[tier] += n
	}
	out.timedSec = append(out.timedSec, elapsed.Seconds())
	out.reqPerS = append(out.reqPerS, float64(len(answers))/elapsed.Seconds()/f)
	out.kips = append(out.kips, float64(insts)/elapsed.Seconds()/1e3/f)
	out.reps++
	out.heapMiB = append(out.heapMiB, retainedHeapMiB())
	if keep {
		out.lastStack = st
	}

	// Output gate: every served answer must decode to the Stats of an
	// in-process Engine.Run of the same spec.
	return checkAnswers(ctx, b, opts, m, bodies, out)
}

// send issues one planned request and checks its status and tier.
func send(ctx context.Context, hc *http.Client, base string, rq request, tr *tracer, parent int64) (answer, []byte, error) {
	sp := tr.start("client", parent, 0)
	sp.Req = sp.ID
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+api.PathPrefix+"/run", bytes.NewReader(rq.body))
	if err != nil {
		return answer{}, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if sp.ID != 0 {
		hreq.Header.Set(reqHeader, strconv.FormatInt(sp.ID, 10))
	}
	t0 := time.Now()
	resp, err := hc.Do(hreq)
	if err != nil {
		return answer{}, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	tr.end(sp, rq.tier)
	if err != nil {
		return answer{}, nil, err
	}
	got := resp.Header.Get("X-Cache")
	if resp.StatusCode != http.StatusOK {
		got = tierReject
		if resp.StatusCode != http.StatusBadRequest {
			return answer{}, nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
	}
	if got != rq.tier {
		return answer{}, nil, fmt.Errorf("request %s answered from tier %q, planned %q", rq.body, got, rq.tier)
	}
	return answer{tier: got, latency: lat}, body, nil
}

// expectCounts compares the server's tier counters with the mix.
func expectCounts(want map[string]int, p api.Progress) error {
	if p.CacheHits != int64(want[tierHit]) || p.Collapsed != int64(want[tierCollapsed]) ||
		p.EngineRuns != int64(want[tierMiss]) || p.Failed != 0 {
		return fmt.Errorf("server counted %d hits, %d collapsed, %d engine runs, %d failed; the mix implies %d, %d, %d, 0",
			p.CacheHits, p.Collapsed, p.EngineRuns, p.Failed, want[tierHit], want[tierCollapsed], want[tierMiss])
	}
	return nil
}

// checkAnswers decodes one answer per key and compares it with a
// reference engine's run of the same spec.
func checkAnswers(ctx context.Context, b *bench, opts sim.Options, m *mix, bodies map[int][]byte, out *serveOut) error {
	ref := sim.NewEngine(sim.Options{Insts: opts.Insts, Warmup: opts.Warmup, Seed: opts.Seed, Parallelism: 2})
	keys := make([]int, 0, len(bodies))
	specs := make([]sim.Spec, 0, len(bodies))
	for k := range m.universe {
		if _, ok := bodies[k]; ok {
			keys = append(keys, k)
			specs = append(specs, m.universe[k])
		}
	}
	refs, err := ref.RunAll(ctx, specs)
	if err != nil {
		return fmt.Errorf("reference runs: %w", err)
	}
	for i, k := range keys {
		var res api.Result
		err := json.Unmarshal(bodies[k], &res)
		var got *sim.RunOut
		if err == nil {
			got, err = res.ToRunOut()
		}
		switch {
		case err != nil:
			err = fmt.Errorf("decoding answer for %s: %w", specs[i], err)
		case got.Spec != refs[i].Spec:
			err = fmt.Errorf("answer for %s names spec %s", specs[i], got.Spec)
		case !reflect.DeepEqual(*got.Stats, *refs[i].Stats) || *got.Meter != *refs[i].Meter:
			err = fmt.Errorf("answer for %s differs from an in-process run (RetireHash %x vs %x)",
				specs[i], got.Stats.RetireHash, refs[i].Stats.RetireHash)
		}
		b.op(err)
		if err != nil {
			continue
		}
		if e, ok := paperErr(got); ok {
			out.ipcErr = append(out.ipcErr, e)
		}
		out.results[fmt.Sprintf("%d/%d", opts.Seed, k)] = bodies[k]
		out.distinct = append(out.distinct, got)
		out.distOpts = append(out.distOpts, sim.Options{Insts: opts.Insts, Warmup: opts.Warmup, Seed: opts.Seed, Parallelism: 1})
	}
	return nil
}

// servePhase runs the first reps repetitions of the service mix, each on a
// fresh stack with its own simulator seed and its own draw of the mix.
func servePhase(ctx context.Context, b *bench, w workloadDef, reps int, tr *tracer, keepLast bool) (*serveOut, error) {
	rng := rand.New(rand.NewSource(b.seed))
	universe := serveUniverse(rng)
	out := newServeOut()
	for rep := 0; rep < reps; rep++ {
		m, err := newMix(rng, universe, serveShape)
		if err != nil {
			return nil, err
		}
		if err := serveRep(ctx, b, w.opts(simSeed(b.seed, rep)), m, tr, out, keepLast && rep == reps-1); err != nil {
			return nil, fmt.Errorf("rep %d: %w", rep, err)
		}
		if err := measureSetup(ctx, b, w); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runServe(ctx context.Context, b *bench, w workloadDef) error {
	reps := w.reps(b.seconds)
	if b.traced {
		return tracedServe(ctx, b, w, reps)
	}
	out, err := servePhase(ctx, b, w, reps, nil, true)
	if err != nil {
		return err
	}
	serveFaultProbe(ctx, b, out.lastStack)
	if err := out.lastStack.close(); err != nil {
		b.op(err)
	}

	fmt.Printf("%s: %d repetitions, seed %d, tiers %v\n", w.name, out.reps, b.seed, out.counts)
	b.reportEndToEnd(out.e2e(b.setup))
	return nil
}

// serveFaultProbe sends the fault specs to a live server, each with a
// bounded client timeout. A bad spec must be refused with a 4xx, the
// valid one answered with a 200.
func serveFaultProbe(ctx context.Context, b *bench, st *stack) {
	hc := &http.Client{Timeout: probeTimeout}
	defer hc.CloseIdleConnections()
	for _, f := range faultSpecs {
		body, err := json.Marshal(api.RunRequest{Spec: api.FromSimSpec(f.spec)})
		if err != nil {
			b.fault(f.name, err)
			continue
		}
		b.fault(f.name, httpProbe(ctx, hc, st.ts.URL, body, f.bad))
	}
}

func httpProbe(ctx context.Context, hc *http.Client, base string, body []byte, bad bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+api.PathPrefix+"/run", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	switch {
	case bad && resp.StatusCode >= 400 && resp.StatusCode < 500:
		return nil
	case !bad && resp.StatusCode == http.StatusOK:
		return nil
	}
	return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
}
