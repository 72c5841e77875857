package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint tags a report with the host and the code it measured:
// CPU count, GOMAXPROCS, Go version, the git revision when the checkout
// is a repository, and a digest of the Go sources either way.
func fingerprint(root string) string {
	rev := "none"
	// Only ask git inside a repository rooted here: elsewhere it would
	// search the parent directories and could report another checkout.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			rev = strings.TrimSpace(string(b))
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s os=%s/%s git=%s src=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, rev, sourceDigest(root))
}

// sourceDigest hashes go.mod and every .go file under internal/ and
// perfbench/, in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	files := []string{filepath.Join(root, "go.mod")}
	for _, dir := range []string{"internal", "perfbench"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
				files = append(files, p)
			}
			return nil
		})
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// peakRSSMiB is the process's peak resident set (VmHWM). Where /proc is
// missing it falls back to the Go runtime's total mapped memory.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
