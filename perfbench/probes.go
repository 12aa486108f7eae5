package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"time"

	"repro/internal/api"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/smpred"
	"repro/internal/token"
	"repro/internal/workload"
)

// A traced run measures the same third of the workload's repetitions
// twice, untraced then traced; the difference is the tracing overhead. The traced repetitions' spans give per-layer self times,
// and layer probes drive each package through its public API.

func tracedReps(reps int) int { return max(1, reps/3) }

func tracedBatch(ctx context.Context, b *bench, w workloadDef, reps int) error {
	rt := tracedReps(reps)
	plain, err := batchPhase(ctx, b, w, rt, nil)
	if err != nil {
		return err
	}
	traced, err := batchPhase(ctx, b, w, rt, b.tr)
	if err != nil {
		return err
	}
	if err := checkFullGate(ctx, b, traced.distinct, traced.distOpts); err != nil {
		return err
	}
	reportOverhead(b, plain.e2e(nil), traced.e2e(nil))
	if err := apiProbe(b, traced.distinct, traced.distOpts); err != nil {
		return err
	}

	// The service layer on the workload's own specs: one traced
	// repetition of a small mix over them.
	rng := rand.New(rand.NewSource(b.seed))
	universe := append([]sim.Spec(nil), batchSpecs(w.name)...)
	rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
	m, err := newMix(rng, universe, probeShape)
	if err != nil {
		return err
	}
	sv := newServeOut()
	if err := serveRep(ctx, b, w.opts(simSeed(b.seed, rt)), m, b.tr, sv, false); err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	if err := serveLayer(b, sv); err != nil {
		return err
	}
	benches := map[string]bool{}
	for _, s := range batchSpecs(w.name) {
		benches[s.Bench] = true
	}
	if err := probeLayers(ctx, b, w, benches); err != nil {
		return err
	}
	return selfTimeMetrics(b)
}

// probeShape is the small mix that exercises the service layer in a
// traced batch run.
var probeShape = mixShape{rounds: 4, perClient: 20, misses: 10, zipf: 1.0, pairProb: 0.5, rejectProb: 0.05}

func tracedServe(ctx context.Context, b *bench, w workloadDef, reps int) error {
	rt := tracedReps(reps)
	plain, err := servePhase(ctx, b, w, rt, nil, false)
	if err != nil {
		return err
	}
	traced, err := servePhase(ctx, b, w, rt, b.tr, false)
	if err != nil {
		return err
	}
	if err := checkFullGate(ctx, b, traced.distinct, traced.distOpts); err != nil {
		return err
	}
	reportOverhead(b, plain.e2e(nil), traced.e2e(nil))
	if err := apiProbe(b, traced.distinct, traced.distOpts); err != nil {
		return err
	}
	if err := serveLayer(b, traced); err != nil {
		return err
	}
	benches := map[string]bool{}
	for _, s := range traced.distinct {
		benches[s.Spec.Bench] = true
	}
	if err := probeLayers(ctx, b, w, benches); err != nil {
		return err
	}
	return selfTimeMetrics(b)
}

// reportOverhead reports how much worse the traced measurements are
// than the untraced ones, in percent.
func reportOverhead(b *bench, plain, traced endToEnd) {
	worse := func(name string, p, t float64, lowerIsBetter bool) {
		d := (t - p) / p
		if !lowerIsBetter {
			d = -d
		}
		b.add("trace.overhead."+name+"_pct", 100*d, "%")
	}
	worse("sim_kips", plain.kips.median(), traced.kips.median(), false)
	worse("miss_p50", plain.missMS.median(), traced.missMS.median(), true)
	worse("hit_p50", plain.hitUS.median(), traced.hitUS.median(), true)
	worse("req_per_s", plain.reqPerS.median(), traced.reqPerS.median(), false)
}

// checkFullGate re-runs every distinct output at core.CheckFull: the
// monitors must report no violation and the retired stream must hash
// the same.
func checkFullGate(ctx context.Context, b *bench, outs []*sim.RunOut, opts []sim.Options) error {
	bySeed := make(map[int64][]int)
	var seeds []int64
	for i, o := range opts {
		if _, ok := bySeed[o.Seed]; !ok {
			seeds = append(seeds, o.Seed)
		}
		bySeed[o.Seed] = append(bySeed[o.Seed], i)
	}
	for _, seed := range seeds {
		idx := bySeed[seed]
		o := opts[idx[0]]
		eng := sim.NewEngine(sim.Options{Insts: o.Insts, Warmup: o.Warmup, Seed: seed, Parallelism: 2})
		specs := make([]sim.Spec, len(idx))
		for j, i := range idx {
			specs[j] = outs[i].Spec
			specs[j].Over.Check = core.CheckFull
		}
		full, runErr := eng.RunAll(ctx, specs)
		for j, i := range idx {
			var err error
			switch {
			case full[j] == nil:
				err = fmt.Errorf("CheckFull %s failed: %w", specs[j], runErr)
			case full[j].Stats.RetireHash != outs[i].Stats.RetireHash:
				err = fmt.Errorf("CheckFull %s: RetireHash %x, unmonitored run %x",
					specs[j], full[j].Stats.RetireHash, outs[i].Stats.RetireHash)
			}
			b.op(err)
		}
	}
	return ctx.Err()
}

// apiProbe times the wire layer on the traced outputs: the content
// address, encoding a result as the server does, and decoding it as
// api.Client does.
func apiProbe(b *bench, outs []*sim.RunOut, opts []sim.Options) error {
	const rounds = 20
	var keyD, encD, decD time.Duration
	var bytes int
	n := 0
	for r := 0; r < rounds; r++ {
		for i, o := range outs {
			op := opts[i]
			t0 := time.Now()
			key := api.Key(o.Spec, op.Insts, op.Warmup, op.Seed)
			t1 := time.Now()
			body, err := json.Marshal(api.FromRunOut(o, op.Insts, op.Warmup, op.Seed))
			t2 := time.Now()
			if err != nil {
				return err
			}
			var res api.Result
			err = json.Unmarshal(body, &res)
			var back *sim.RunOut
			if err == nil {
				back, err = res.ToRunOut()
			}
			t3 := time.Now()
			if r == 0 {
				if err == nil && (res.Key != key || !reflect.DeepEqual(*back.Stats, *o.Stats)) {
					err = fmt.Errorf("api round trip of %s changed the result", o.Spec)
				}
				b.op(err)
			}
			if err != nil {
				return err
			}
			keyD += t1.Sub(t0)
			encD += t2.Sub(t1)
			decD += t3.Sub(t2)
			bytes += len(body)
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("api probe: no outputs")
	}
	b.add("api.key_us", us(keyD)/float64(n), "us")
	b.add("api.encode_us", us(encD)/float64(n), "us")
	b.add("api.decode_us", us(decD)/float64(n), "us")
	b.add("api.result_bytes", float64(bytes)/float64(n), "bytes")
	return nil
}

// serveLayer reports the service-layer metrics of a traced repetition
// and times the store on its answers.
func serveLayer(b *bench, sv *serveOut) error {
	answered := float64(sv.counts[tierHit] + sv.counts[tierCollapsed] + sv.counts[tierMiss])
	b.add("serve.hit_share", float64(sv.counts[tierHit])/answered, "ratio")
	b.add("serve.collapsed_share", float64(sv.counts[tierCollapsed])/answered, "ratio")
	b.add("serve.miss_share", float64(sv.counts[tierMiss])/answered, "ratio")
	b.add("serve.engine_runs", float64(sv.runs), "count")
	b.add("serve.handler_hit_us", sv.handlerHitUS.median(), "us")
	b.add("serve.reject_us", sv.rejectUS.median(), "us")
	b.add("serve.miss_overhead_ms", sv.missOverheadMS.median(), "ms")
	b.add("sim.journal_bytes_per_run", float64(sv.journalB)/float64(sv.runs), "bytes")
	b.add("sim.busy_frac", sv.execSec/sv.timedSec.sum(), "ratio")
	if len(sv.missOverheadMS) != int(sv.runs) {
		b.op(fmt.Errorf("%d simulations attributed to miss handlers, %d engine runs", len(sv.missOverheadMS), sv.runs))
	}

	dir, err := os.MkdirTemp("", "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := serve.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	type kv struct {
		key  string
		body []byte
	}
	var items []kv
	for _, body := range sv.results {
		var res api.Result
		if err := json.Unmarshal(body, &res); err != nil {
			return err
		}
		items = append(items, kv{res.Key, body})
	}
	var put, get samples
	for _, it := range items {
		t0 := time.Now()
		err := st.Put(it.key, it.body)
		put = append(put, us(time.Since(t0)))
		b.op(err)
	}
	const gets = 20
	for r := 0; r < gets; r++ {
		for _, it := range items {
			t0 := time.Now()
			got, ok := st.Get(it.key)
			get = append(get, us(time.Since(t0)))
			if r == 0 {
				var err error
				if !ok || string(got) != string(it.body) {
					err = fmt.Errorf("store returned different bytes for %s", it.key)
				}
				b.op(err)
			}
		}
	}
	b.add("serve.store_put_us", put.median(), "us")
	b.add("serve.store_get_us", get.median(), "us")
	return nil
}

// coreBenches are the benchmarks of the core probe grid: the common
// path and the replay-heavy path, on every scheme and both widths.
var coreBenches = []string{"gcc", "mcf"}

// probeLayers drives the generator, the substrates, the core and the
// engine through their public APIs on the workload's own streams.
func probeLayers(ctx context.Context, b *bench, w workloadDef, benches map[string]bool) error {
	seed := simSeed(b.seed, 1_000)
	n := w.warmup + w.insts + streamMargin

	// Generator: build each stream once, timed.
	streams := make(map[string][]isa.Inst)
	var genD time.Duration
	var genN int64
	for _, name := range workload.Benchmarks {
		if !benches[name] && !slices.Contains(coreBenches, name) {
			continue
		}
		sp := b.tr.start("probe.workload", 0, 0)
		t0 := time.Now()
		insts, err := genStream(name, seed, n)
		d := time.Since(t0)
		b.tr.end(sp, name)
		if err != nil {
			return err
		}
		b.op(nil)
		streams[name] = insts
		genD += d
		genN += n
	}
	b.add("workload.gen_ns_per_inst", float64(genD.Nanoseconds())/float64(genN), "ns")

	var subs []string
	for _, name := range workload.Benchmarks {
		if benches[name] {
			subs = append(subs, name)
		}
	}
	substrateProbe(b, subs, streams)
	return coreProbe(ctx, b, w, seed, streams)
}

// substrateProbe feeds each substrate the workload's streams through
// its public API: the data cache sees every memory access, the branch
// predictors every branch, and the scheduling-miss predictor, token
// allocator and prefetcher every load, with the cache's DL1 outcome
// standing in for the load's scheduling miss.
func substrateProbe(b *bench, benches []string, streams map[string][]isa.Inst) {
	var cacheD, bpD, tageD, smD, tokD, pfD time.Duration
	var accesses, dl1Miss, branches, mispred, loads, missed int
	var covered, tokenCovered, pfFires, pfUseful int
	for _, name := range benches {
		insts := streams[name]
		sp := b.tr.start("probe.substrates", 0, 0)

		// Cache hierarchy, one instruction per cycle.
		h := cache.NewHierarchy(cache.DefaultHierarchy())
		miss := make([]bool, 0, len(insts)/4)
		t0 := time.Now()
		for i := range insts {
			if insts[i].Class.IsMem() {
				r := h.Data(insts[i].Addr, int64(i))
				if insts[i].Class == isa.Load {
					miss = append(miss, r.Level != cache.LevelL1)
				}
			}
		}
		cacheD += time.Since(t0)
		a, m := h.DL1().Stats()
		accesses += int(a)
		dl1Miss += int(m)

		// Branch predictors: the paper's combined predictor and TAGE.
		for _, cfg := range []bpred.Config{bpred.Default(), bpred.DefaultTAGE()} {
			p := bpred.New(cfg)
			t0 := time.Now()
			for i := range insts {
				if insts[i].Class == isa.Branch {
					pr := p.Lookup(insts[i].PC)
					p.Update(insts[i].PC, pr, insts[i].Taken, insts[i].Target)
				}
			}
			d := time.Since(t0)
			lk, mp := p.Stats()
			if cfg.Kind == bpred.KindTAGE {
				tageD += d
			} else {
				bpD += d
				branches += int(lk)
				mispred += int(mp)
			}
		}

		// Scheduling-miss predictor: confidence at lookup, trained with
		// the outcome.
		sm := smpred.New(smpred.Default())
		conf := make([]smpred.Confidence, 0, len(miss))
		t0 = time.Now()
		j := 0
		for i := range insts {
			if insts[i].Class == isa.Load {
				c := sm.Lookup(insts[i].PC)
				sm.Update(insts[i].PC, miss[j])
				conf = append(conf, c)
				j++
			}
		}
		smD += time.Since(t0)
		for k, c := range conf {
			if miss[k] {
				missed++
				if c >= 2 {
					covered++
				}
			}
		}
		loads += len(conf)

		// Token allocator: every load asks at its predicted confidence;
		// a token is released when its load leaves a 64-load window.
		ta := token.NewAllocator(core.Config4Wide().Tokens)
		const window = 64
		held := make([]int, len(conf))
		holder := make([]int64, ta.Size())
		t0 = time.Now()
		for k, c := range conf {
			if k >= window && held[k-window] >= 0 && holder[held[k-window]] == int64(k-window) {
				ta.Release(held[k-window])
				holder[held[k-window]] = -1
			}
			id, ok, _ := ta.Allocate(int64(k), c)
			held[k] = -1
			if ok {
				held[k] = id
				holder[id] = int64(k)
			}
		}
		tokD += time.Since(t0)
		for k := range conf {
			if miss[k] && held[k] >= 0 {
				tokenCovered++
			}
		}

		// Stride prefetcher: settle demand use, then observe and fire.
		pf := prefetch.New(prefetch.DefaultStride())
		t0 = time.Now()
		for i := range insts {
			if insts[i].Class == isa.Load {
				if pf.DemandUse(h.DL1().LineAddr(insts[i].Addr)) {
					pfUseful++
				}
				if pa, ok := pf.Observe(insts[i].PC, insts[i].Addr); ok {
					pf.MarkIssued(h.DL1().LineAddr(pa))
					pfFires++
				}
			}
		}
		pfD += time.Since(t0)
		b.tr.end(sp, name)
		b.op(nil)
	}
	ratio := func(a, b int) float64 { return float64(a) / float64(max(b, 1)) }
	b.add("cache.ns_per_access", float64(cacheD.Nanoseconds())/float64(max(accesses, 1)), "ns")
	b.add("cache.dl1_miss_rate", ratio(dl1Miss, accesses), "ratio")
	b.add("bpred.ns_per_branch", float64(bpD.Nanoseconds())/float64(max(branches, 1)), "ns")
	b.add("bpred.tage.ns_per_branch", float64(tageD.Nanoseconds())/float64(max(branches, 1)), "ns")
	b.add("bpred.mispredict_rate", ratio(mispred, branches), "ratio")
	b.add("smpred.ns_per_load", float64(smD.Nanoseconds())/float64(max(loads, 1)), "ns")
	b.add("smpred.coverage", ratio(covered, missed), "ratio")
	b.add("token.ns_per_alloc", float64(tokD.Nanoseconds())/float64(max(loads, 1)), "ns")
	b.add("token.coverage", ratio(tokenCovered, missed), "ratio")
	b.add("prefetch.ns_per_observe", float64(pfD.Nanoseconds())/float64(max(loads, 1)), "ns")
	b.add("prefetch.accuracy", ratio(pfUseful, pfFires), "ratio")
	b.add("prefetch.fires_per_kload", 1000*ratio(pfFires, loads), "count")
}

// coreProbe runs the grid coreBenches × schemes × widths three ways:
// through Engine.Run (cold, then warm), on a pooled machine fed by the
// generator, and on a pooled machine fed by the pre-generated slice.
// The machine runs use Warmup 0 and MaxInsts Warmup+Insts, so their
// cycle counts are whole-run counts; they retire the same stream as
// the engine run, so RetireHash must match.
func coreProbe(ctx context.Context, b *bench, w workloadDef, seed int64, streams map[string][]isa.Inst) error {
	opts := w.opts(seed)
	var grid []sim.Spec
	for _, bench := range coreBenches {
		for _, s := range core.Schemes() {
			for _, w8 := range []bool{false, true} {
				grid = append(grid, sim.Spec{Bench: bench, Wide8: w8, Scheme: s})
			}
		}
	}

	// Engine: sequential cold runs on one slot, then warm hits.
	trk := newExecTracker()
	eopts := opts
	eopts.OnProgress = trk.onProgress
	eng := sim.NewEngine(eopts)
	bs := b.tr.start("batch", 0, 0)
	trk.arm()
	engOut := make([]*sim.RunOut, len(grid))
	engD := make([]time.Duration, len(grid))
	for i, s := range grid {
		t0 := time.Now()
		o, err := eng.Run(ctx, s)
		engD[i] = time.Since(t0)
		b.op(err)
		if err != nil {
			trk.disarm()
			return err
		}
		engOut[i] = o
	}
	execs, _ := trk.disarm()
	b.tr.end(bs, "core probe")
	var runMS samples
	for _, e := range execs {
		runMS = append(runMS, ms(e[1].Sub(e[0])))
		b.tr.record(span{Parent: bs.ID, Name: "sim.exec", Start: b.tr.at(e[0]), End: b.tr.at(e[1])})
	}
	for _, s := range grid {
		sp := b.tr.start("engine.hit", 0, 0)
		_, err := eng.Run(ctx, s)
		b.tr.end(sp, "core probe")
		b.op(err)
	}

	var m *core.Machine
	var genRunD, engRunD time.Duration
	var resetUS, newMS samples
	cyc := map[bool][2]float64{}              // width → {ns, cycles}
	perScheme := map[core.Scheme][2]float64{} // → {ns, insts}
	var allocs uint64
	var logIPC, issues, retired, squashed float64
	var genShareNum, genShareDen time.Duration
	for i, s := range grid {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		cfg := s.Config(opts)
		cfg.MaxInsts, cfg.Warmup = opts.Warmup+opts.Insts, 0
		prof, err := workload.ByName(s.Bench)
		if err != nil {
			return err
		}

		// Generator-fed.
		sp := b.tr.start("probe.core", 0, 0)
		g0 := time.Now()
		gen, err := workload.NewGenerator(prof, seed)
		if err != nil {
			return err
		}
		genNew := time.Since(g0)
		if m == nil {
			m, err = core.New(cfg, gen)
		} else {
			err = m.Reset(cfg, gen)
		}
		if err != nil {
			return err
		}
		t0 := time.Now()
		gst, err := m.RunContext(ctx)
		genRunD += time.Since(t0)
		engRunD += engD[i]
		if err != nil {
			return fmt.Errorf("generator-fed %s: %w", s, err)
		}
		gcopy := gst.Clone()
		if s.Scheme == core.PosSel && !s.Wide8 {
			// The generator's share of this engine run: building the
			// generator plus producing the stream the run consumed.
			g2, _ := workload.NewGenerator(prof, seed)
			t0 := time.Now()
			g2.Generate(int(opts.Warmup + opts.Insts))
			genShareNum += genNew + time.Since(t0)
			genShareDen += engD[i]
		}

		// Slice-fed.
		src := &sliceStream{insts: streams[s.Bench]}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		r0 := time.Now()
		err = m.Reset(cfg, src)
		resetUS = append(resetUS, us(time.Since(r0)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		sst, err := m.RunContext(ctx)
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs
		b.tr.end(sp, s.String())
		switch {
		case err != nil:
			err = fmt.Errorf("slice-fed %s: %w", s, err)
		case src.overrun:
			err = fmt.Errorf("slice-fed %s: stream overrun", s)
		case !reflect.DeepEqual(*sst, gcopy):
			err = fmt.Errorf("slice-fed %s: stats differ from the generator-fed run", s)
		case sst.RetireHash != engOut[i].Stats.RetireHash:
			err = fmt.Errorf("slice-fed %s: RetireHash %x, engine %x", s, sst.RetireHash, engOut[i].Stats.RetireHash)
		}
		b.op(err)
		if err != nil {
			return err
		}
		c := cyc[s.Wide8]
		cyc[s.Wide8] = [2]float64{c[0] + float64(d.Nanoseconds()), c[1] + float64(sst.Cycles)}
		p := perScheme[s.Scheme]
		perScheme[s.Scheme] = [2]float64{p[0] + float64(d.Nanoseconds()), p[1] + float64(sst.Retired)}

		// Construction of a fresh machine.
		n0 := time.Now()
		if _, err := core.New(cfg, &sliceStream{insts: streams[s.Bench]}); err != nil {
			return err
		}
		newMS = append(newMS, ms(time.Since(n0)))

		est := engOut[i].Stats
		logIPC += math.Log(est.IPC())
		issues += float64(est.TotalIssues)
		retired += float64(est.Retired)
		squashed += float64(est.SquashedIssues)
	}
	b.add("core.4w.ns_per_cycle", cyc[false][0]/cyc[false][1], "ns")
	b.add("core.8w.ns_per_cycle", cyc[true][0]/cyc[true][1], "ns")
	for _, s := range core.Schemes() {
		p := perScheme[s]
		b.add("core."+s.String()+".ns_per_inst", p[0]/p[1], "ns")
	}
	b.add("core.allocs_per_run", float64(allocs)/float64(len(grid)), "count")
	b.add("core.reset_us", resetUS.median(), "us")
	b.add("core.new_ms", newMS.median(), "ms")
	b.add("core.ipc_geomean", math.Exp(logIPC/float64(len(grid))), "IPC")
	b.add("core.issues_per_retired", issues/retired, "ratio")
	b.add("core.replays_per_kinst", 1000*squashed/retired, "count")
	b.add("workload.gen_share_pct", 100*genShareNum.Seconds()/genShareDen.Seconds(), "%")
	b.add("sim.run_ms", runMS.median(), "ms")
	b.add("sim.engine_overhead_pct", 100*(engRunD-genRunD).Seconds()/engRunD.Seconds(), "%")
	return nil
}

// selfTimeLayers are the span layers whose self time a traced run
// reports, with the unit each is reported in.
var selfTimeLayers = []struct {
	name, metric string
	scale        float64 // nanoseconds per unit
	unit         string
}{
	{"client", "trace.self.client_us", 1e3, "us"},
	{"handler", "trace.self.handler_us", 1e3, "us"},
	{"sim.exec", "trace.self.sim_exec_ms", 1e6, "ms"},
	{"batch", "trace.self.batch_ms", 1e6, "ms"},
	{"engine.hit", "trace.self.engine_hit_us", 1e3, "us"},
}

// selfTimeMetrics reports the mean self time per span of each layer
// and checks that no layer's self time exceeds its span time.
func selfTimeMetrics(b *bench) error {
	lt := selfTimes(b.tr.since(0))
	for _, l := range selfTimeLayers {
		t, ok := lt[l.name]
		if !ok || t.n == 0 {
			return fmt.Errorf("traced run recorded no %s spans", l.name)
		}
		var err error
		if t.self < 0 || t.self > t.span {
			err = fmt.Errorf("layer %s: self time %dns outside its span time %dns", l.name, t.self, t.span)
		}
		b.op(err)
		b.add(l.metric, float64(t.self)/float64(t.n)/l.scale, l.unit)
	}
	for name, t := range lt {
		fmt.Printf("layer %-18s spans %6d  span %10.3fms  self %10.3fms\n", name, t.n, float64(t.span)/1e6, float64(t.self)/1e6)
	}
	return nil
}
