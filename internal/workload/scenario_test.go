package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"camc/internal/arch"
	"camc/internal/trace"
)

func TestColocationInterferes(t *testing.T) {
	a := arch.KNL()
	mix := DefaultMix(16, 2)
	co, err := Run(mix, Options{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	if len(co.Jobs) != 3 {
		t.Fatalf("jobs %d, want 3", len(co.Jobs))
	}
	for _, spec := range mix {
		solo, err := Solo(spec, Options{Arch: a})
		if err != nil {
			t.Fatal(err)
		}
		var coJob JobResult
		for _, j := range co.Jobs {
			if j.Name == spec.Name {
				coJob = j
			}
		}
		if coJob.Ops != solo.Ops || coJob.Ops == 0 {
			t.Fatalf("%s: ops co %d solo %d", spec.Name, coJob.Ops, solo.Ops)
		}
		if solo.PeakAmbient != 0 {
			t.Errorf("%s solo saw ambient %d, want 0 (machine idle)", spec.Name, solo.PeakAmbient)
		}
		// Ambient is sampled at chunk starts, so a job whose transfers
		// are single-chunk point samples (stencil halos, rpc eager
		// traffic) can legitimately miss the others' bursty holds — but
		// co-location must never make anyone faster.
		if coJob.MeanLat < solo.MeanLat {
			t.Errorf("%s: co-located mean %g faster than solo %g", spec.Name, coJob.MeanLat, solo.MeanLat)
		}
	}
	// The kernel-assisted heavyweight must measurably feel the mix: the
	// train job's big CMA transfers sample often enough to observe the
	// stencil halos' lock holders and slow down for it.
	var train, soloTrain JobResult
	for _, j := range co.Jobs {
		if j.Class == ClassTrain {
			train = j
		}
	}
	soloTrain, err = Solo(mix[0], Options{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	if train.PeakAmbient == 0 {
		t.Error("train job saw no co-tenant lock pressure at all")
	}
	if train.MeanLat <= soloTrain.MeanLat {
		t.Errorf("train job unaffected by co-tenants: co %g vs solo %g", train.MeanLat, soloTrain.MeanLat)
	}
}

func TestStaticAmbientSlowsScenario(t *testing.T) {
	a := arch.KNL()
	spec := JobSpec{Name: "train", Class: ClassTrain, Ranks: 16, Iters: 2}
	idle, err := Solo(spec, Options{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	busy, err := Solo(spec, Options{Arch: a, Ambient: 32})
	if err != nil {
		t.Fatal(err)
	}
	if busy.PeakAmbient != 32 {
		t.Fatalf("peak ambient %d, want the static 32", busy.PeakAmbient)
	}
	if busy.MeanLat <= idle.MeanLat {
		t.Fatalf("static ambient 32 did not slow the job: %g vs %g", busy.MeanLat, idle.MeanLat)
	}
}

func TestScenarioValidation(t *testing.T) {
	if _, err := Run(nil, Options{}); err == nil {
		t.Error("empty scenario accepted")
	}
	dup := []JobSpec{
		{Name: "x", Class: ClassRPC, Ranks: 4, Iters: 1},
		{Name: "x", Class: ClassTrain, Ranks: 4, Iters: 1},
	}
	if _, err := Run(dup, Options{}); err == nil {
		t.Error("duplicate job names accepted")
	}
}

// TestScenarioDeterminism: the same mixed scenario run twice — with
// tracing on — produces byte-identical traces and identical results.
// This is the -j invariance story for multi-tenant runs: the mix runs
// in ONE simulation, so there is nothing parallel about it; the test
// pins that nothing (map iteration, pooling) sneaks nondeterminism in.
func TestScenarioDeterminism(t *testing.T) {
	run := func() (Result, string) {
		rec := trace.NewUnbound()
		res, err := Run(DefaultMix(8, 2), Options{Arch: arch.KNL(), Ambient: 4, Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, rec); err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	r1, t1 := run()
	r2, t2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("results differ:\n%+v\n%+v", r1, r2)
	}
	if t1 != t2 {
		t.Fatal("traces differ between identical runs")
	}
	if !strings.Contains(t1, "train.r0") || !strings.Contains(t1, "stencil.r0") || !strings.Contains(t1, "rpc.r0") {
		t.Fatalf("trace missing per-job lanes")
	}
}
