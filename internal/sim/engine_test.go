package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// gateFirstAttempt blocks the engine's first simulation attempt inside
// the run hook until release is closed; started closes once it is
// there. Later attempts wait for the gate to open, then pass through.
func gateFirstAttempt(e *Engine) (started, release chan struct{}) {
	started, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	e.runHook = func(Spec, int) error {
		once.Do(func() {
			close(started)
			<-release
		})
		return nil
	}
	return started, release
}

// waitJoined waits until n calls are waiting on in-flight runs.
func waitJoined(t *testing.T, e *Engine, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.Snapshot().Joined < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d calls joined, want %d", e.Snapshot().Joined, n)
		}
		time.Sleep(time.Millisecond)
	}
}

type doResult struct {
	out *RunOut
	src Source
	err error
}

func do(ctx context.Context, e *Engine, spec Spec, to chan<- doResult) {
	out, src, err := e.Do(ctx, spec)
	to <- doResult{out, src, err}
}

// N calls for a spec whose leader is held inside its run all join it:
// one Ran, N Joined, one shared result, and a Memo answer afterwards.
func TestSingleflightJoinsGatedLeader(t *testing.T) {
	e := NewEngine(testOpts())
	started, release := gateFirstAttempt(e)
	spec := Spec{Bench: "gap", Scheme: core.TkSel}
	const followers = 8
	results := make(chan doResult, followers+1)
	go do(context.Background(), e, spec, results)
	<-started
	for i := 0; i < followers; i++ {
		go do(context.Background(), e, spec, results)
	}
	waitJoined(t, e, followers)
	close(release)

	count := map[Source]int{}
	var first *RunOut
	for i := 0; i < followers+1; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		count[r.src]++
		if first == nil {
			first = r.out
		} else if r.out != first {
			t.Error("a joined call got a different result than its leader")
		}
	}
	if count[Ran] != 1 || count[Joined] != followers {
		t.Errorf("sources %v; want 1 Ran and %d Joined", count, followers)
	}
	if out, src, err := e.Do(context.Background(), spec); err != nil || src != Memo || out != first {
		t.Errorf("after the flight: source %v, err %v; want the memoized result", src, err)
	}
	// Joined calls count once, in Joined: the leader and the memo call
	// are the two Done specs.
	if snap := e.Snapshot(); snap.Queued != followers+2 || snap.Done != 2 || snap.Joined != followers {
		t.Errorf("queued=%d done=%d joined=%d, want %d/2/%d", snap.Queued, snap.Done, snap.Joined, followers+2, followers)
	}
}

// When the leader's context is canceled mid-run, a live follower takes
// the spec over and gets a clean run's result.
func TestLeaderCancelFollowerTakesOver(t *testing.T) {
	spec := Spec{Bench: "gap", Scheme: core.PosSel}
	clean, err := NewEngine(testOpts()).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Stats.Cycles <= 2*4096 {
		t.Fatalf("run of %d cycles is too short to notice a cancel", clean.Stats.Cycles)
	}

	e := NewEngine(testOpts())
	started, release := gateFirstAttempt(e)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leader := make(chan doResult, 1)
	go do(leaderCtx, e, spec, leader)
	<-started
	follower := make(chan doResult, 1)
	go do(context.Background(), e, spec, follower)
	waitJoined(t, e, 1)
	cancelLeader()
	close(release)

	if r := <-leader; !errors.Is(r.err, context.Canceled) || r.src != Ran {
		t.Errorf("leader: source %v, err %v; want Ran and context.Canceled", r.src, r.err)
	}
	r := <-follower
	if r.err != nil {
		t.Fatalf("follower: %v", r.err)
	}
	if r.src != Ran {
		t.Errorf("follower source %v, want Ran (it took the run over)", r.src)
	}
	if !reflect.DeepEqual(r.out.Stats, clean.Stats) {
		t.Error("taken-over run diverges from a clean run")
	}
	if snap := e.Snapshot(); snap.Done != 1 || snap.Failed != 1 || snap.Joined != 0 {
		t.Errorf("done=%d failed=%d joined=%d, want 1/1/0", snap.Done, snap.Failed, snap.Joined)
	}
}

// When leader and follower are both canceled, both get
// context.Canceled, and the engine is left usable.
func TestLeaderAndFollowerCanceled(t *testing.T) {
	e := NewEngine(Options{Insts: 8_000, Warmup: 2_000, Seed: 5, Parallelism: 1})
	started, release := gateFirstAttempt(e)
	spec := Spec{Bench: "gap", Scheme: core.PosSel}
	ctx, cancel := context.WithCancel(context.Background())
	results := make(chan doResult, 2)
	go do(ctx, e, spec, results)
	<-started
	go do(ctx, e, spec, results)
	waitJoined(t, e, 1)
	cancel()
	close(release)
	for i := 0; i < 2; i++ {
		if r := <-results; !errors.Is(r.err, context.Canceled) {
			t.Errorf("call %d: err %v, want context.Canceled", i, r.err)
		}
	}
	if _, err := e.Run(context.Background(), spec); err != nil {
		t.Fatalf("engine unusable after a canceled flight: %v", err)
	}
}

// A panic inside a run is the engine's fault boundary: the call fails
// with a permanent error naming spec, cycle and event cursor, the
// machine is dropped, the one slot survives, and nothing is retried.
func TestPanicInRunIsAContainedFault(t *testing.T) {
	e := NewEngine(Options{Insts: 8_000, Warmup: 2_000, Seed: 5, Parallelism: 1})
	bad := Spec{Bench: "gap", Scheme: core.NonSel}.Normalize()
	e.runHook = func(s Spec, attempt int) error {
		if s == bad {
			panic("injected fault")
		}
		return nil
	}
	for i := 0; i < 2; i++ {
		_, err := e.Run(context.Background(), bad)
		if err == nil {
			t.Fatalf("run %d: panic not reported", i)
		}
		for _, want := range []string{bad.String(), "cycle", "event cursor", "injected fault"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("run %d: error %q does not name %q", i, err, want)
			}
		}
	}
	if snap := e.Snapshot(); snap.Retried != 0 || snap.Failed != 2 || snap.Running != 0 {
		t.Errorf("retried=%d failed=%d running=%d, want 0/2/0", snap.Retried, snap.Failed, snap.Running)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := e.Run(ctx, Spec{Bench: "gzip", Scheme: core.PosSel}); err != nil {
		t.Fatalf("slot lost to the fault: %v", err)
	}
}
