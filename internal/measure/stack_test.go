package measure

import (
	"flag"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"camc/internal/arch"
	"camc/internal/core"
)

// stackInuseBound is the peak runtime StackInuse, in bytes, that a
// sweep of every registered algorithm may reach. The message and CMA
// paths run on every rank's coroutine stack, so a frame that grows on
// them grows every pooled worker's stack at once: a receive path ~500
// bytes deeper once raised this reading from 992 to 1,632 KiB, with
// every functional pin still green. Measured at 928–992 KiB on
// linux/amd64 with go1.24.0.
const stackInuseBound = 992 << 10

// stackProbePattern selects TestCoroutineStackInuse alone.
const stackProbePattern = "^TestCoroutineStackInuse$"

// TestCoroutineStackInuse pins the coroutine stack depth of the
// simulated ranks: it runs every registered algorithm at 4 KiB and
// 256 KiB on power8 and knl and bounds the peak runtime StackInuse.
// The reading must come from a fresh process with the collector off,
// so that no earlier test's pooled workers and no stack shrinking
// blur it: the test re-runs its own binary selecting only itself
// under GOGC=off, and that child takes the reading.
func TestCoroutineStackInuse(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("stack depth differs under the race detector; the sweep is long for -short")
	}
	if os.Getenv("GOGC") == "off" && flag.Lookup("test.run").Value.String() == stackProbePattern {
		peak := stackSweep(t)
		t.Logf("peak StackInuse %d KiB", peak>>10)
		if peak > stackInuseBound {
			t.Errorf("peak StackInuse %d KiB > bound %d KiB: a frame on the rank coroutines' path grew",
				peak>>10, stackInuseBound>>10)
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run="+stackProbePattern, "-test.v")
	cmd.Env = append(os.Environ(), "GOGC=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("stack probe failed: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`peak StackInuse (\d+) KiB`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("stack probe printed no reading:\n%s", out)
	}
	kib, _ := strconv.Atoi(string(m[1]))
	t.Logf("peak StackInuse %d KiB (bound %d KiB)", kib, stackInuseBound>>10)
}

// stackSweep runs every registered algorithm at 4 KiB and 256 KiB on
// power8 and knl and returns the peak StackInuse read after each run.
func stackSweep(t *testing.T) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var peak uint64
	var ms runtime.MemStats
	for _, a := range []*arch.Profile{arch.Power8(), arch.KNL()} {
		for _, kind := range core.SpecKinds() {
			for _, info := range core.Specs(kind) {
				al, err := core.LookupAlgorithm(kind, info.Name)
				if err != nil {
					t.Fatalf("%s/%s: %v", kind, info.Name, err)
				}
				for _, size := range []int64{4 << 10, 256 << 10} {
					Collective(a, kind, al.Run, size, Options{})
					runtime.ReadMemStats(&ms)
					peak = max(peak, ms.StackInuse)
				}
			}
		}
	}
	return peak
}
