package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// repDeadline bounds one repetition of any workload.
const repDeadline = 60 * time.Second

// batchSpecs returns the specs one repetition of a batch workload runs.
//
// sweep-schemes is the shape of cmd/paper's Figure 12/13 sweeps: every
// replay scheme on the common path (gcc) and the replay-heavy path
// (mcf), at both widths, so each instruction stream is regenerated 20
// times. table4 runs every benchmark profile once under PosSel at
// 4-wide: no stream repeats, and working sets range from
// cache-resident to memory-bound mcf.
func batchSpecs(name string) []sim.Spec {
	var specs []sim.Spec
	if name == "table4" {
		for _, bench := range workload.Benchmarks {
			specs = append(specs, sim.Spec{Bench: bench, Scheme: core.PosSel})
		}
		return specs
	}
	for _, bench := range []string{"gcc", "mcf"} {
		for _, s := range core.Schemes() {
			for _, w8 := range []bool{false, true} {
				specs = append(specs, sim.Spec{Bench: bench, Wide8: w8, Scheme: s})
			}
		}
	}
	return specs
}

// Warm hits are timed in blocks of hitBlockCalls engine calls, about
// hitBlocks blocks per phase spread over its repetitions, so the hit
// tail has more than ten samples beyond it. A warm call allocates, so GC
// cycles run among the hits: a block of a few milliseconds spans about
// one, where 1000-call blocks split into GC and non-GC blocks and p95
// fell on the boundary between them. Spreading the blocks over the
// repetitions keeps one slow spell of the shared host from setting the
// tail. A traced phase records a span per call and times only
// tracedHitBlocks blocks per repetition.
const (
	hitBlockCalls   = 5000
	hitBlocks       = 200
	tracedHitBlocks = 1
)

func (w workloadDef) opts(seed int64) sim.Options {
	return sim.Options{Insts: w.insts, Warmup: w.warmup, Seed: seed, Parallelism: 1}
}

// batchOut aggregates the repetitions of one batch phase.
type batchOut struct {
	reps      int
	kips      samples       // per repetition
	specsPerS samples       // per repetition
	missMS    samples       // per simulated spec
	hitUS     samples       // per block of warm engine calls in the last repetition, mean per call
	first     []*sim.RunOut // outputs of the phase's first repetition
	firstOpts sim.Options
	distinct  []*sim.RunOut // every output, for the traced CheckFull gate
	distOpts  []sim.Options
	heapMiB   samples // per repetition
}

// warmHits asks a warm engine for its specs again, in blocks of
// hitBlockCalls calls cycling through them, and returns each block's
// mean per call: a warm call takes about a microsecond, close to the
// clock's resolution. The cold batch's garbage is collected first and
// one untimed block refills the caches it evicted, so neither decides
// where the tail falls.
func warmHits(ctx context.Context, b *bench, eng *sim.Engine, specs []sim.Spec, outs []*sim.RunOut,
	blocks int, tr *tracer, parent int64) samples {
	runtime.GC()
	var hits samples
	answered := 0
	for blk := 0; blk <= blocks; blk++ {
		h0 := time.Now()
		for n := 0; n < hitBlockCalls; n++ {
			i := (blk*hitBlockCalls + n) % len(specs)
			sp := tr.start("engine.hit", parent, 0)
			o, err := eng.Run(ctx, specs[i])
			tr.end(sp, "")
			if err == nil && o != outs[i] {
				err = fmt.Errorf("warm %s answered a different result", specs[i])
			}
			if err != nil {
				b.op(err)
			} else {
				answered++
			}
		}
		if blk > 0 {
			hits = append(hits, us(time.Since(h0))/hitBlockCalls)
		}
	}
	b.ops(answered)
	return hits
}

func (out *batchOut) e2e(setup samples) endToEnd {
	return endToEnd{
		setup: setup, kips: out.kips, reqPerS: out.specsPerS,
		missMS: out.missMS, hitUS: out.hitUS, heapMiB: out.heapMiB.mean(),
	}
}

// batchPhase runs the first reps repetitions of a batch workload: each is a
// cold Engine.RunAll on a fresh one-slot engine with its own simulator
// seed, followed by warm passes that ask the same engine again.
func batchPhase(ctx context.Context, b *bench, w workloadDef, reps int, tr *tracer) (*batchOut, error) {
	specs := batchSpecs(w.name)
	out := &batchOut{}
	trk := newExecTracker()
	for rep := 0; rep < reps; rep++ {
		opts := w.opts(simSeed(b.seed, rep))
		opts.OnProgress = trk.onProgress
		eng := sim.NewEngine(opts)
		rctx, cancel := context.WithTimeout(ctx, repDeadline)

		b.gauges.cpu.begin()
		root := tr.start("rep", 0, 0)
		cold := tr.start("batch", root.ID, 0)
		trk.arm()
		t0 := time.Now()
		outs, err := eng.RunAll(rctx, specs)
		t1 := time.Now()
		execs, fins := trk.disarm()
		tr.end(cold, w.name)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("rep %d: %w", rep, err)
		}
		b.ops(len(specs))
		for _, e := range execs {
			tr.record(span{Parent: cold.ID, Name: "sim.exec", Start: tr.at(e[0]), End: tr.at(e[1])})
		}
		if len(fins) != len(specs) {
			cancel()
			return nil, fmt.Errorf("rep %d: %d completions observed for %d specs", rep, len(fins), len(specs))
		}
		// The cold batch and the warm hits are scaled separately: the
		// hits take a fraction of a second, and the host can change
		// state within a cold batch.
		coldF := b.gauges.cpu.end()
		missFrom := len(out.missMS)
		prev := t0
		for _, f := range fins {
			out.missMS = append(out.missMS, ms(f.Sub(prev)))
			prev = f
		}
		sec := t1.Sub(t0).Seconds()
		var insts int64
		for _, o := range outs {
			insts += opts.Warmup + o.Stats.Retired
		}
		out.missMS.scale(missFrom, coldF)
		out.kips = append(out.kips, float64(insts)/sec/1e3/coldF)
		out.specsPerS = append(out.specsPerS, float64(len(specs))/sec/coldF)

		blocks := hitBlocks/reps + 1
		if tr != nil {
			blocks = tracedHitBlocks
		}
		hitFrom := len(out.hitUS)
		out.hitUS = append(out.hitUS, warmHits(rctx, b, eng, specs, outs, blocks, tr, root.ID)...)
		out.hitUS.scale(hitFrom, b.gauges.cpu.end())
		tr.end(root, fmt.Sprint(rep))
		cancel()

		if rep == 0 {
			out.first, out.firstOpts = outs, w.opts(opts.Seed)
		}
		for _, o := range outs {
			out.distinct = append(out.distinct, o)
			out.distOpts = append(out.distOpts, w.opts(opts.Seed))
		}
		out.reps++
		// The engine is still live: its memo and machine pool count
		// toward the retained heap.
		out.heapMiB = append(out.heapMiB, retainedHeapMiB())
		runtime.KeepAlive(eng)
		if err := measureSetup(ctx, b, w); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// retainedHeapMiB is the live heap after a full collection. Phases
// report its mean over their repetitions, each measured at the end of
// the repetition with its engine or stack live: the engine pools one
// machine sized by whichever spec ran on it last, and RunAll's
// goroutines take the slot in no fixed order, so on sweep-schemes a
// single measurement read either about 2.3 or about 3.0 MiB and its
// spread over ten seeds reached 0.18.
func retainedHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// table4Fit returns |sim − paper| / paper for the paper's Table 4 specs
// (every benchmark, PosSel, 4-wide) at the workload's run lengths, one
// value per benchmark and repetition seed. table4 has them among its
// outputs; sweep-schemes runs them untimed, because its own four PosSel
// specs per repetition left the mean's spread across seeds as wide as
// its bound.
func table4Fit(ctx context.Context, b *bench, w workloadDef, reps int, outs []*sim.RunOut) (samples, error) {
	var errs samples
	if w.name == "table4" {
		for _, o := range outs {
			if e, ok := paperErr(o); ok {
				errs = append(errs, e)
			}
		}
		return errs, nil
	}
	for rep := 0; rep < reps; rep++ {
		eng := sim.NewEngine(sim.Options{Insts: w.insts, Warmup: w.warmup, Seed: simSeed(b.seed, rep), Parallelism: 2})
		fit, err := eng.RunAll(ctx, batchSpecs("table4"))
		b.op(err)
		if err != nil {
			return nil, err
		}
		for _, o := range fit {
			if e, ok := paperErr(o); ok {
				errs = append(errs, e)
			}
		}
	}
	return errs, nil
}

// paperErr returns |sim − paper| / paper for a default-frontend PosSel
// result of a benchmark in the paper's Table 4.
func paperErr(o *sim.RunOut) (float64, bool) {
	if o.Spec.Scheme != core.PosSel || o.Spec.Over != (sim.Overrides{}) {
		return 0, false
	}
	paper := experiments.PaperIPC4
	if o.Spec.Wide8 {
		paper = experiments.PaperIPC8
	}
	for i, name := range workload.Benchmarks {
		if name == o.Spec.Bench {
			return math.Abs(o.Stats.IPC()-paper[i]) / paper[i], true
		}
	}
	return 0, false
}

func runBatch(ctx context.Context, b *bench, w workloadDef) error {
	reps := w.reps(b.seconds)
	if b.traced {
		return tracedBatch(ctx, b, w, reps)
	}
	out, err := batchPhase(ctx, b, w, reps, nil)
	if err != nil {
		return err
	}
	if err := sliceGate(ctx, b, out.first, out.firstOpts); err != nil {
		return err
	}
	e2e := out.e2e(b.setup)
	if e2e.ipcErr, err = table4Fit(ctx, b, w, reps, out.distinct); err != nil {
		return err
	}
	engineFaultProbe(ctx, b, w)

	fmt.Printf("%s: %d repetitions of %d specs, seed %d\n", w.name, out.reps, len(batchSpecs(w.name)), b.seed)
	b.reportEndToEnd(e2e)
	return nil
}

// sliceStream feeds a machine from a pre-generated instruction slice.
type sliceStream struct {
	insts   []isa.Inst
	i       int
	overrun bool
}

func (s *sliceStream) Next() isa.Inst {
	if s.i >= len(s.insts) {
		s.overrun = true
		return s.insts[len(s.insts)-1]
	}
	in := s.insts[s.i]
	s.i++
	return in
}

// streamMargin is how many instructions past Warmup+Insts a pre-generated
// stream holds: the front end fetches ahead of retirement.
const streamMargin = 4096

func genStream(bench string, seed, n int64) ([]isa.Inst, error) {
	prof, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	g, err := workload.NewGenerator(prof, seed)
	if err != nil {
		return nil, err
	}
	return g.Generate(int(n)), nil
}

// sliceGate re-runs every output on a core.Machine fed from a
// pre-generated slice of the same stream and requires the same Stats,
// RetireHash included: the stream must not depend on the machine.
func sliceGate(ctx context.Context, b *bench, outs []*sim.RunOut, opts sim.Options) error {
	streams := make(map[string][]isa.Inst)
	var m *core.Machine
	for _, o := range outs {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		insts, ok := streams[o.Spec.Bench]
		if !ok {
			var err error
			insts, err = genStream(o.Spec.Bench, opts.Seed, opts.Warmup+opts.Insts+streamMargin)
			if err != nil {
				return err
			}
			streams[o.Spec.Bench] = insts
		}
		src := &sliceStream{insts: insts}
		cfg := o.Spec.Config(opts)
		var err error
		if m == nil {
			m, err = core.New(cfg, src)
		} else {
			err = m.Reset(cfg, src)
		}
		if err != nil {
			return err
		}
		st, err := m.RunContext(ctx)
		switch {
		case err != nil:
			err = fmt.Errorf("slice-fed %s: %w", o.Spec, err)
		case src.overrun:
			err = fmt.Errorf("slice-fed %s: stream of %d insts overrun", o.Spec, len(insts))
		case !reflect.DeepEqual(*st, *o.Stats):
			err = fmt.Errorf("slice-fed %s: stats differ from the engine's (RetireHash %x vs %x)", o.Spec, st.RetireHash, o.Stats.RetireHash)
		}
		b.op(err)
		if err != nil {
			m = nil
		}
	}
	return nil
}

// probeTimeout bounds each fault-probe operation.
const probeTimeout = 1500 * time.Millisecond

// faultSpecs are the two specs that panic inside a simulation instead
// of being rejected up front, followed by a valid spec no workload
// asks for, which must still complete afterwards.
var faultSpecs = []struct {
	name string
	spec sim.Spec
	bad  bool
}{
	{"tokens=1000", sim.Spec{Bench: "gcc", Scheme: core.TkSel, Over: sim.Overrides{Tokens: 1000}}, true},
	{"predEntries=3", sim.Spec{Bench: "gcc", Scheme: core.TkSel, Over: sim.Overrides{PredEntries: 3}}, true},
	{"valid uncached spec", sim.Spec{Bench: "gcc", Scheme: core.PosSel, Over: sim.Overrides{ROBSize: 96}}, false},
}

// engineFaultProbe sends the fault specs to a dedicated one-slot engine
// through Engine.Run. A bad spec must come back as an error, a valid
// one as a result, each before the probe timeout.
func engineFaultProbe(ctx context.Context, b *bench, w workloadDef) {
	eng := sim.NewEngine(w.opts(simSeed(b.seed, -1)))
	for _, f := range faultSpecs {
		b.fault(f.name, engineProbe(ctx, eng, f.spec, f.bad))
	}
}

func engineProbe(ctx context.Context, eng *sim.Engine, spec sim.Spec, bad bool) (err error) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	_, err = eng.Run(ctx, spec)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("no answer within %v: %w", probeTimeout, err)
	case bad && err == nil:
		return errors.New("invalid spec accepted")
	case bad:
		return nil
	}
	return err
}
