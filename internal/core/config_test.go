package core

import "testing"

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		PosSel: "PosSel", IDSel: "IDSel", NonSel: "NonSel", DSel: "DSel",
		TkSel: "TkSel", ReInsert: "ReInsert", Refetch: "Refetch",
		Conservative: "Conservative", SerialVerify: "SerialVerify",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), name)
		}
		if !s.Valid() {
			t.Errorf("%v should be valid", s)
		}
	}
	if Scheme(200).Valid() {
		t.Error("out-of-range scheme reported valid")
	}
	if len(Schemes()) != int(numSchemes) {
		t.Errorf("Schemes() returned %d entries", len(Schemes()))
	}
}

func TestTable3Presets(t *testing.T) {
	c4 := Config4Wide()
	if err := c4.Validate(); err != nil {
		t.Fatalf("4-wide preset invalid: %v", err)
	}
	if c4.Width != 4 || c4.ROBSize != 128 || c4.IQSize != 64 || c4.LSQSize != 64 ||
		c4.MemPorts != 2 || c4.IntALU != 4 || c4.Tokens != 8 {
		t.Errorf("4-wide preset diverges from Table 3: %+v", c4)
	}
	c8 := Config8Wide()
	if err := c8.Validate(); err != nil {
		t.Fatalf("8-wide preset invalid: %v", err)
	}
	if c8.Width != 8 || c8.ROBSize != 256 || c8.IQSize != 128 || c8.LSQSize != 128 ||
		c8.MemPorts != 4 || c8.IntALU != 8 || c8.Tokens != 16 {
		t.Errorf("8-wide preset diverges from Table 3: %+v", c8)
	}
	// Propagation distance: schedule-to-execute 5 + verify 1 = 6, as in
	// §2.3's worked example.
	if c4.PropagationDistance() != 6 || c8.PropagationDistance() != 6 {
		t.Error("propagation distance must be 6 on the Table 3 machines")
	}
}

func TestConfigValidateRejects(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero width", func(c *Config) { c.Width = 0 }},
		{"tiny rob", func(c *Config) { c.ROBSize = 1 }},
		{"no ports", func(c *Config) { c.MemPorts = 0 }},
		{"no alus", func(c *Config) { c.IntALU = 0 }},
		{"zero sched-to-exec", func(c *Config) { c.SchedToExec = 0 }},
		{"zero verify", func(c *Config) { c.VerifyLatency = 0 }},
		{"zero front end", func(c *Config) { c.FrontEndDepth = 0 }},
		{"negative reinsert", func(c *Config) { c.ReinsertPenalty = -1 }},
		{"bad scheme", func(c *Config) { c.Scheme = Scheme(99) }},
		{"tksel no tokens", func(c *Config) { c.Scheme = TkSel; c.Tokens = 0 }},
		{"tksel too many tokens", func(c *Config) { c.Scheme = TkSel; c.Tokens = 1000 }},
		{"smpred not a power of two", func(c *Config) { c.SMPred.Entries = 3 }},
		{"negative smpred", func(c *Config) { c.SMPred.Entries = -4 }},
		{"vpred not a power of two", func(c *Config) { c.VPred.Entries = 100 }},
		{"no insts", func(c *Config) { c.MaxInsts = 0 }},
		{"negative warmup", func(c *Config) { c.Warmup = -1 }},
	}
	for _, m := range mutations {
		c := Config4Wide()
		m.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

// TestValidateSchemeFeatureMatrix walks every scheme × replay-queue ×
// value-prediction × token-count combination and checks Validate's
// verdict against the paper's feature support, hard-coded here so a
// registry bug cannot silently relax the matrix: the replay-queue
// model (Figure 4b) applies to the four squashing schemes, value
// prediction (§3.5) to the four schemes that track dependences without
// relying on enforced timing, TkSel always needs tokens, and VP over
// the replay-queue model is never modeled.
func TestValidateSchemeFeatureMatrix(t *testing.T) {
	rqOK := map[Scheme]bool{PosSel: true, IDSel: true, NonSel: true, DSel: true}
	vpOK := map[Scheme]bool{IDSel: true, TkSel: true, ReInsert: true, Refetch: true}
	for s := Scheme(0); s < numSchemes; s++ {
		for _, rq := range []bool{false, true} {
			for _, vp := range []bool{false, true} {
				for _, tokens := range []int{0, 8} {
					c := Config4Wide()
					c.Scheme = s
					c.ReplayQueue = rq
					c.ValuePrediction = vp
					c.Tokens = tokens
					wantOK := (!rq || rqOK[s]) &&
						(!vp || vpOK[s]) &&
						!(rq && vp) &&
						!(s == TkSel && tokens == 0)
					err := c.Validate()
					if wantOK && err != nil {
						t.Errorf("%v rq=%v vp=%v tokens=%d: rejected: %v", s, rq, vp, tokens, err)
					}
					if !wantOK && err == nil {
						t.Errorf("%v rq=%v vp=%v tokens=%d: accepted", s, rq, vp, tokens)
					}
				}
			}
		}
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Cycles: 100, Retired: 150, TotalIssues: 200, FirstIssues: 160,
		LoadIssues: 50, LoadSchedMisses: 5,
		Policy: PolicyStats{MissesWithToken: 4}}
	if s.IPC() != 1.5 {
		t.Errorf("IPC = %v", s.IPC())
	}
	if s.LoadMissRate() != 0.1 {
		t.Errorf("LoadMissRate = %v", s.LoadMissRate())
	}
	if s.ReplayRate() != 0.2 {
		t.Errorf("ReplayRate = %v", s.ReplayRate())
	}
	if s.TokenCoverage() != 0.8 {
		t.Errorf("TokenCoverage = %v", s.TokenCoverage())
	}
	var zero Stats
	if zero.IPC() != 0 || zero.ReplayRate() != 0 || zero.LoadMissRate() != 0 || zero.TokenCoverage() != 0 {
		t.Error("zero stats must yield zero rates")
	}
}
