package fault

import (
	"reflect"
	"strings"
	"testing"
)

// drain pulls n decisions from every per-op site and returns them as a
// comparable fingerprint.
func drain(p *Plan, n int) []float64 {
	var out []float64
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	for i := 0; i < n; i++ {
		out = append(out,
			b(p.Transient(1000, 1001)),
			b(p.PartialCut(1000, 1001)),
			p.LockSpike(1002, 1001),
			p.ShmStall(0, 3),
			p.StragglerDelay(i%8, i))
	}
	return out
}

func TestSameSeedSameDecisions(t *testing.T) {
	cfg := Config{Seed: 7, PartialProb: 0.3, TransientProb: 0.3, LockSpikeProb: 0.3, ShmStallProb: 0.3, StragglerProb: 0.5}
	a, b := drain(New(cfg), 200), drain(New(cfg), 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	cfg.Seed = 8
	c := drain(New(cfg), 200)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical decision streams")
	}
}

func TestSitesAreIndependent(t *testing.T) {
	// Consuming extra decisions at one site must not shift another
	// site's stream: partial decisions with and without interleaved
	// lock-spike probes must match.
	cfg := Config{Seed: 3, PartialProb: 0.4, LockSpikeProb: 0.4}
	p1, p2 := New(cfg), New(cfg)
	for i := 0; i < 100; i++ {
		want := p1.PartialCut(1, 2)
		p2.LockSpike(1, 2) // extra traffic on an unrelated site
		if got := p2.PartialCut(1, 2); got != want {
			t.Fatalf("partial decision %d shifted by lock-spike traffic", i)
		}
	}
}

func TestInjectionRatesRoughlyMatch(t *testing.T) {
	p := New(Config{Seed: 1, PartialProb: 0.25})
	hits := 0
	for i := 0; i < 4000; i++ {
		if p.PartialCut(5, 6) {
			hits++
		}
	}
	if hits < 800 || hits > 1200 {
		t.Fatalf("partial rate %d/4000 far from 0.25", hits)
	}
	if got := p.Stats().Partials; got != int64(hits) {
		t.Fatalf("stats counted %d partials, observed %d", got, hits)
	}
}

func TestBackoffExponentialAndCapped(t *testing.T) {
	p := New(Config{Seed: 1, BackoffBase: 1, BackoffCap: 8})
	want := []float64{1, 2, 4, 8, 8, 8}
	var total float64
	for i, w := range want {
		if got := p.Backoff(i); got != w {
			t.Fatalf("backoff(%d) = %g, want %g", i, got, w)
		}
		total += w
	}
	st := p.Stats()
	if st.Retries != int64(len(want)) || st.BackoffTime != total {
		t.Fatalf("stats retries=%d backoff=%g, want %d/%g", st.Retries, st.BackoffTime, len(want), total)
	}
}

func TestStragglerChoiceIsStable(t *testing.T) {
	p := New(Config{Seed: 9, StragglerProb: 0.5, StragglerSkew: 10})
	n := 0
	for r := 0; r < 64; r++ {
		was := p.IsStraggler(r)
		for i := 0; i < 5; i++ {
			if p.IsStraggler(r) != was {
				t.Fatalf("rank %d straggler status flapped", r)
			}
		}
		if was {
			n++
			d := p.StragglerDelay(r, 0)
			if d <= 0 || d > 10 {
				t.Fatalf("rank %d delay %g out of (0, 10]", r, d)
			}
			if d2 := p.StragglerDelay(r, 0); d2 != d {
				t.Fatalf("delay not a function of (rank, iter): %g vs %g", d, d2)
			}
		} else if d := p.StragglerDelay(r, 0); d != 0 {
			t.Fatalf("non-straggler rank %d got delay %g", r, d)
		}
	}
	if n == 0 || n == 64 {
		t.Fatalf("straggler pick degenerate: %d/64", n)
	}
}

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if p.Transient(1, 2) || p.PartialCut(1, 2) || p.LockSpike(1, 2) != 1 ||
		p.ShmStall(0, 1) != 0 || p.IsStraggler(0) || p.StragglerDelay(0, 0) != 0 ||
		p.Backoff(3) != 0 {
		t.Fatal("nil plan injected a fault")
	}
	p.CountFallback()
	p.CountBounce(10)
	if p.Stats() != (Stats{}) {
		t.Fatal("nil plan accumulated stats")
	}
}

func TestParseSpecs(t *testing.T) {
	cfg, err := Parse("partial=0.2,eagain=0.1,seed=7,retries=3,skew=100")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.PartialProb != 0.2 || cfg.TransientProb != 0.1 ||
		cfg.MaxRetries != 3 || cfg.StragglerSkew != 100 {
		t.Fatalf("parsed %+v", cfg)
	}
	cfg, err = Parse("heavy,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 11 || cfg.PartialProb != presets["heavy"].PartialProb {
		t.Fatalf("preset override parsed %+v", cfg)
	}
	if _, err := Preset("moderate"); err != nil {
		t.Fatal(err)
	}
	// Round trip: String output re-parses to the same config.
	rt, err := Parse(cfg.String())
	if err != nil {
		t.Fatalf("round trip: %v (spec %q)", err, cfg.String())
	}
	if rt != cfg {
		t.Fatalf("round trip changed config: %+v vs %+v", rt, cfg)
	}
}

func TestParseRejectsMalformedSpecs(t *testing.T) {
	for _, spec := range []string{
		"", "nonsense", "partial", "partial=x", "partial=1.5",
		"unknownkey=1", "retries=0", "eagain=-0.1", "seed=abc",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a malformed spec", spec)
		} else if !strings.Contains(err.Error(), "fault:") {
			t.Errorf("Parse(%q) error lacks context: %v", spec, err)
		}
	}
}

func TestKillPointStableAndBounded(t *testing.T) {
	p := New(Config{Seed: 5, KillProb: 0.5, KillMaxOp: 6})
	killed := 0
	for r := 0; r < 64; r++ {
		kp := p.KillPoint(r)
		for i := 0; i < 5; i++ {
			if p.KillPoint(r) != kp {
				t.Fatalf("rank %d kill point flapped", r)
			}
		}
		if r == 0 && kp != -1 {
			t.Fatal("rank 0 must never be killed")
		}
		if kp != -1 {
			killed++
			if kp < 1 || kp > 6 {
				t.Fatalf("rank %d kill point %d out of [1, 6]", r, kp)
			}
		}
	}
	if killed == 0 || killed == 63 {
		t.Fatalf("kill pick degenerate: %d/63", killed)
	}
}

func TestKillDisabledByDefault(t *testing.T) {
	p := New(Config{Seed: 5, TransientProb: 0.5})
	for r := 0; r < 32; r++ {
		if p.KillPoint(r) != -1 {
			t.Fatalf("rank %d killed with KillProb=0", r)
		}
	}
	if (Config{KillProb: 0.1}).Active() != true {
		t.Fatal("kill-only config not Active")
	}
}

// TestReviveDisarmsKillsOnly: after Revive the plan kills nobody but
// still injects the transient classes; Reset re-arms.
func TestReviveDisarmsKillsOnly(t *testing.T) {
	cfg := Config{Seed: 5, KillProb: 0.9, TransientProb: 0.5}
	p := New(cfg)
	victim := -1
	for r := 1; r < 16; r++ {
		if p.KillPoint(r) != -1 {
			victim = r
			break
		}
	}
	if victim == -1 {
		t.Fatal("no victim at KillProb=0.9")
	}
	p.Revive()
	if p.KillPoint(victim) != -1 {
		t.Fatal("revived plan still kills")
	}
	hit := false
	for i := 0; i < 100; i++ {
		if p.Transient(1, 2) {
			hit = true
		}
	}
	if !hit {
		t.Fatal("revived plan stopped injecting transients")
	}
	p.Reset()
	if p.KillPoint(victim) == -1 {
		t.Fatal("Reset did not re-arm kills")
	}
}

// TestResetRestoresFreshSchedule is the satellite regression test:
// back-to-back cells sharing one plan must see identical injections and
// zero'd stats after Reset — no leaked sequence state, no leaked
// counters.
func TestResetRestoresFreshSchedule(t *testing.T) {
	cfg := Config{Seed: 7, PartialProb: 0.3, TransientProb: 0.3, LockSpikeProb: 0.3, ShmStallProb: 0.3, StragglerProb: 0.5}
	p := New(cfg)
	first := drain(p, 100)
	statsBefore := p.Stats()
	if statsBefore == (Stats{}) {
		t.Fatal("drain produced no stats; test is vacuous")
	}
	p.Reset()
	if p.Stats() != (Stats{}) {
		t.Fatalf("Reset left stats behind: %+v", p.Stats())
	}
	second := drain(p, 100)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("decision %d after Reset diverged from a fresh plan's", i)
		}
	}
}

func TestParseKillKeys(t *testing.T) {
	cfg, err := Parse("kill=0.4,killop=8,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.KillProb != 0.4 || cfg.KillMaxOp != 8 || cfg.Seed != 3 {
		t.Fatalf("parsed %+v", cfg)
	}
	if _, err := Parse("kill=1.5"); err == nil {
		t.Fatal("kill probability > 1 accepted")
	}
	if _, err := Parse("killop=0"); err == nil {
		t.Fatal("killop=0 accepted")
	}
	// Round trip through String.
	p := New(cfg)
	rt, err := Parse(p.cfg.String())
	if err != nil {
		t.Fatal(err)
	}
	if rt.KillProb != 0.4 || rt.KillMaxOp != 8 {
		t.Fatalf("round trip lost kill config: %+v", rt)
	}
}

// TestParseErrorsEnumerateVocabulary is the satellite check: a typo'd
// class or malformed element names every valid preset and key in the
// error, so the CLI message alone is enough to fix the spec.
func TestParseErrorsEnumerateVocabulary(t *testing.T) {
	for _, spec := range []string{"bogus=1", "partial", ""} {
		_, err := Parse(spec)
		if err == nil {
			t.Fatalf("Parse(%q) succeeded", spec)
		}
		msg := err.Error()
		for _, want := range append(PresetNames(), specKeys...) {
			if !strings.Contains(msg, want) {
				t.Errorf("Parse(%q) error omits %q:\n%s", spec, want, msg)
			}
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	p := New(Config{Seed: 1, TransientProb: 1})
	c := p.cfg
	if c.MaxRetries != DefaultMaxRetries || c.BackoffBase != DefaultBackoffBase ||
		c.LockSpikeFactor != DefaultLockSpikeFactor {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

// TestStatsAddFoldsEveryField: Add must sum every counter, so a field
// added to Stats later cannot silently drop out of cluster totals.
func TestStatsAddFoldsEveryField(t *testing.T) {
	var one Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(1)
		case reflect.Float64:
			f.SetFloat(1)
		default:
			t.Fatalf("Stats.%s: unexpected kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	var sum Stats
	sum.Add(one)
	sum.Add(one)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if f := got.Field(i); f.Convert(reflect.TypeOf(float64(0))).Float() != 2 {
			t.Errorf("Stats.%s = %v after two Adds of 1, want 2", got.Type().Field(i).Name, f)
		}
	}
}
