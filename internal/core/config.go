// Package core implements the paper's execution engine: a cycle-level
// out-of-order superscalar pipeline with speculative scheduling
// (instructions are woken up and selected several cycles before they
// execute) and the full design space of scheduling replay schemes from
// §3–§4 of the paper, built around the issue-queue-based replay model
// of Figure 4a.
package core

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/prefetch"
	"repro/internal/smpred"
	"repro/internal/token"
	"repro/internal/vpred"
)

// Scheme selects the scheduling replay scheme the machine runs.
type Scheme uint8

const (
	// PosSel is position-based selective replay (§3.4.3): the ideal
	// scheme that invalidates exactly the transitive dependents of a
	// mis-scheduled load. It is the paper's normalization baseline.
	PosSel Scheme = iota
	// IDSel is ID-based selective replay (§3.4.1): replay behaviour is
	// identical to PosSel — the schemes differ only in the hardware name
	// space (full load-ID vectors vs. position matrices), which the
	// analytic package costs out.
	IDSel
	// NonSel is non-selective (squashing) replay (§3.3, Alpha
	// 21264-style): a scheduling miss flushes everything between the
	// schedule and execute stages and invalidates every operand woken
	// within the propagation distance, dependent or not.
	NonSel
	// DSel is delayed selective replay (§3.4.2): NonSel's kill in the
	// scheduler, but issued instructions keep flowing with poison bits
	// and a completion bus re-validates independents when they complete
	// cleanly.
	DSel
	// TkSel is token-based selective replay (§4.2), the paper's
	// contribution: predicted-miss loads get tokens and replay precisely
	// (PosSel-equivalent); token-less misses fall back to re-insert.
	TkSel
	// ReInsert recovers every miss by flushing younger instructions
	// from the scheduler and re-inserting them from the ROB in program
	// order (§4.2's safety mechanism, evaluated standalone in Fig 13).
	ReInsert
	// Refetch treats a scheduling miss like a branch misprediction:
	// flush and refetch all younger instructions (§3.2).
	Refetch
	// Conservative schedules pessimistically (§5.4, after Yoaz et al.):
	// loads with high predicted-miss confidence do not speculatively
	// wake dependents; wrong hit-predictions recover via re-insert.
	Conservative
	// SerialVerify propagates verification one dependence level per
	// cycle (§2.1, Figure 2a); it exists to reproduce Figure 3's
	// runaway-wavefront behaviour.
	SerialVerify
	// LoadDelay tracks observed load latencies per PC and delays
	// dependent wakeup to the predicted latency instead of speculating
	// on a hit (after Diavastos & Carlson's real-time load-delay
	// tracking): a load whose table predicts a long latency broadcasts
	// late, and a cold load waits for its actual latency. Scheduling
	// misses only happen when a load beats its own prediction's
	// history, so replay pressure trades against delayed wakeup.
	LoadDelay
	numSchemes
)

// String returns the scheme's registered name as used in the paper's
// figures.
func (s Scheme) String() string {
	if s < numSchemes && policyRegistry[s].name != "" {
		return policyRegistry[s].name
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

// Valid reports whether s is a defined scheme with a registered policy.
func (s Scheme) Valid() bool {
	return s < numSchemes && policyRegistry[s].build != nil
}

// Schemes lists all implemented replay schemes.
func Schemes() []Scheme {
	out := make([]Scheme, numSchemes)
	for i := range out {
		out[i] = Scheme(i)
	}
	return out
}

// Config describes one machine. Construct from Config4Wide/Config8Wide
// and adjust, or build from scratch and Validate.
type Config struct {
	// Name labels the configuration in output.
	Name string
	// Width is the fetch/issue/commit width.
	Width int
	// ROBSize, IQSize, LSQSize size the window structures.
	ROBSize, IQSize, LSQSize int
	// MemPorts is the number of general memory ports (load/store issue
	// slots per cycle).
	MemPorts int
	// IntALU, FPALU, IntMulDiv, FPMulDiv are functional-unit counts.
	IntALU, FPALU, IntMulDiv, FPMulDiv int

	// SchedToExec is the pipeline distance from the schedule stage to
	// execute (5 in Figure 1).
	SchedToExec int
	// VerifyLatency is the delay from miss detection at completion to
	// the kill signal reaching the scheduler (1 in the paper); the
	// propagation distance is SchedToExec+VerifyLatency.
	VerifyLatency int
	// FrontEndDepth is the fetch-to-dispatch latency in cycles (the
	// fetch/decode/rename/queue stages of the 13-stage pipe).
	FrontEndDepth int
	// ReinsertPenalty is the delay from detecting a miss to starting
	// re-insert replay (4 in §4.2).
	ReinsertPenalty int

	// Tokens is the token pool size for TkSel (8 at 4-wide, 16 at
	// 8-wide in the paper).
	Tokens int

	// ReplayQueue selects the replay-queue-based model of Figure 4b
	// (the paper's future work, §3.1) instead of the default
	// issue-queue-based model: instructions release their issue-queue
	// entry as soon as they issue, and issued-unverified instructions
	// wait in a separate replay queue. The queue cannot observe wakeup
	// activity, so a squashed instruction re-issues blindly after
	// RQRetryDelay and may replay multiple times until its inputs are
	// actually valid — exactly the trade-off the paper describes.
	ReplayQueue bool
	// RQSize bounds issued-unverified instructions under the
	// replay-queue model (0 = ROBSize).
	RQSize int
	// RQRetryDelay is the blind re-issue delay after a squash under the
	// replay-queue model (0 = the propagation distance).
	RQRetryDelay int

	// ValuePrediction enables load value prediction (§3.5's motivating
	// data-speculation technique): confidently predicted loads hand
	// their consumers a value at rename, collapsing the dependence.
	// Verification happens only when the load's memory access completes
	// — a non-deterministic delay — so only replay schemes that track
	// dependences in a full name space (IDSel) or in rename order
	// (TkSel, ReInsert, Refetch) can recover mispredictions; the
	// timing-based schemes are rejected, mirroring the paper's
	// data-dependence-enforcement argument.
	ValuePrediction bool
	// VPred configures the value predictor.
	VPred vpred.Config

	// Scheme is the replay scheme to run.
	Scheme Scheme

	// Check selects the invariant-monitoring level (see CheckLevel).
	// Monitoring observes through the emit hooks and never perturbs
	// architectural state; off costs one nil test per event.
	Check CheckLevel
	// TraceDepth is the monitor's replay-back horizon: how many recent
	// pipeline events each Violation carries for diagnosis. Must be a
	// power of two (the ring index is a mask); 0 means the default 64.
	TraceDepth int

	// Hierarchy, Bpred, SMPred and Prefetch configure the substrates.
	// Prefetch's zero value (KindOff) keeps the paper's prefetch-free
	// machine.
	Hierarchy cache.HierarchyConfig
	Bpred     bpred.Config
	SMPred    smpred.Config
	Prefetch  prefetch.Config

	// MaxInsts is how many instructions to retire before stopping.
	MaxInsts int64
	// Warmup is how many instructions to retire before measurement
	// begins (caches, predictors and window state stay warm; numeric
	// counters reset). The paper fast-forwards into its benchmarks the
	// same way.
	Warmup int64
}

// Config4Wide returns the paper's Table 3 4-wide machine.
func Config4Wide() Config {
	return Config{
		Name:  "4-wide",
		Width: 4, ROBSize: 128, IQSize: 64, LSQSize: 64,
		MemPorts: 2, IntALU: 4, FPALU: 2, IntMulDiv: 2, FPMulDiv: 2,
		SchedToExec: 5, VerifyLatency: 1, FrontEndDepth: 6,
		ReinsertPenalty: 4, Tokens: 8,
		Scheme:    PosSel,
		Hierarchy: cache.DefaultHierarchy(),
		Bpred:     bpred.Default(),
		SMPred:    smpred.Default(),
		MaxInsts:  200_000,
	}
}

// Config8Wide returns the paper's Table 3 8-wide machine.
func Config8Wide() Config {
	c := Config4Wide()
	c.Name = "8-wide"
	c.Width = 8
	c.ROBSize, c.IQSize, c.LSQSize = 256, 128, 128
	c.MemPorts = 4
	c.IntALU, c.FPALU, c.IntMulDiv, c.FPMulDiv = 8, 4, 4, 4
	c.Tokens = 16
	return c
}

// PropagationDistance returns SchedToExec+VerifyLatency, the paper's
// propagation distance (6 on both Table 3 machines).
func (c Config) PropagationDistance() int { return c.SchedToExec + c.VerifyLatency }

// Validate reports structural problems with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0:
		return fmt.Errorf("core: width %d must be positive", c.Width)
	case c.ROBSize < c.Width || c.IQSize <= 0 || c.LSQSize <= 0:
		return fmt.Errorf("core: window sizes too small (rob=%d iq=%d lsq=%d)",
			c.ROBSize, c.IQSize, c.LSQSize)
	case c.MemPorts <= 0:
		return fmt.Errorf("core: need at least one memory port")
	case c.IntALU <= 0:
		return fmt.Errorf("core: need at least one integer ALU")
	case c.SchedToExec < 1 || c.VerifyLatency < 1:
		return fmt.Errorf("core: schedule-to-execute %d and verify latency %d must be >= 1",
			c.SchedToExec, c.VerifyLatency)
	case c.FrontEndDepth < 1:
		return fmt.Errorf("core: front-end depth %d must be >= 1", c.FrontEndDepth)
	case c.ReinsertPenalty < 0:
		return fmt.Errorf("core: negative re-insert penalty")
	case !c.Scheme.Valid():
		return fmt.Errorf("core: invalid scheme %d", uint8(c.Scheme))
	case !c.Check.Valid():
		return fmt.Errorf("core: invalid check level %d", uint8(c.Check))
	case !pow2OrZero(c.TraceDepth):
		return fmt.Errorf("core: trace depth %d must be a power of two (or 0 for the default)",
			c.TraceDepth)
	case !pow2OrZero(c.SMPred.Entries):
		return fmt.Errorf("core: scheduling-miss predictor entries %d must be a power of two (or 0 for the default)",
			c.SMPred.Entries)
	case !pow2OrZero(c.VPred.Entries):
		return fmt.Errorf("core: value predictor entries %d must be a power of two (or 0 for the default)",
			c.VPred.Entries)
	case policyRegistry[c.Scheme].tokens && (c.Tokens <= 0 || c.Tokens > token.MaxTokens):
		return fmt.Errorf("core: %v needs a token count in 1..%d, not %d", c.Scheme, token.MaxTokens, c.Tokens)
	case c.MaxInsts <= 0:
		return fmt.Errorf("core: MaxInsts must be positive")
	case c.Warmup < 0:
		return fmt.Errorf("core: negative warmup")
	case c.RQSize < 0 || c.RQRetryDelay < 0:
		return fmt.Errorf("core: negative replay-queue parameters")
	case c.ReplayQueue && !policyRegistry[c.Scheme].rq:
		return fmt.Errorf("core: the replay-queue model supports %s, not %v",
			schemeNamesWhere(func(e policyEntry) bool { return e.rq }), c.Scheme)
	case c.ValuePrediction && !policyRegistry[c.Scheme].vp:
		return fmt.Errorf("core: value prediction needs a replay scheme that does not rely on "+
			"enforced dependence order (%s), not %v (§3.5)",
			schemeNamesWhere(func(e policyEntry) bool { return e.vp }), c.Scheme)
	case c.ValuePrediction && c.ReplayQueue:
		return fmt.Errorf("core: value prediction with the replay-queue model is not supported")
	}
	return nil
}

func pow2OrZero(n int) bool { return n >= 0 && n&(n-1) == 0 }

// traceDepth returns the effective monitor trace-window depth.
func (c Config) traceDepth() int {
	if c.TraceDepth > 0 {
		return c.TraceDepth
	}
	return defaultTraceDepth
}

// rqSize returns the effective replay-queue capacity.
func (c Config) rqSize() int {
	if c.RQSize > 0 {
		return c.RQSize
	}
	return c.ROBSize
}

// rqRetryDelay returns the effective blind re-issue delay.
func (c Config) rqRetryDelay() int {
	if c.RQRetryDelay > 0 {
		return c.RQRetryDelay
	}
	return c.PropagationDistance()
}
