package store

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// genRecord draws a deterministic pseudo-random record (cells mostly,
// with some runs and verdicts mixed in).
func genRecord(rng *rand.Rand, i int) Record {
	archs := []string{"knl", "broadwell", "power8"}
	kinds := []string{"scatter", "gather", "bcast", "allgather", "alltoall", "reduce"}
	switch rng.Intn(10) {
	case 0:
		return Record{
			Type: TypeRun, RunID: fmt.Sprintf("run-%d", i), Unix: int64(1000 + i),
			Source: "bench", GitRev: "abcdef123456", Host: "hostA",
			GoVersion: "go1.24.0", CPUs: 8, Jobs: int64(rng.Intn(16)), Seed: rng.Int63n(1 << 30),
			Note: "generated",
		}
	case 1:
		return Record{
			Type: TypeVerdict, RunID: fmt.Sprintf("run-%d", i%7),
			Experiment: "fuzz", Arch: archs[rng.Intn(3)], Series: "corpus",
			Value: float64(rng.Intn(500)), Verdict: []string{"pass", "fail"}[rng.Intn(2)],
			Detail: "corpus=200 fault_plans=57 kill_plans=11",
		}
	default:
		size := int64(1) << (10 + rng.Intn(12))
		return Record{
			Type: TypeCell, RunID: fmt.Sprintf("run-%d", i%7),
			Experiment: fmt.Sprintf("fig%d", 7+rng.Intn(5)), Table: "Fig: some table, Arch X",
			Arch: archs[rng.Intn(3)], Collective: kinds[rng.Intn(6)],
			Series: fmt.Sprintf("algo-%d", rng.Intn(4)), X: fmt.Sprintf("%dK", size>>10),
			Size: size, Value: rng.Float64() * 1e4, Unit: "us",
		}
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		want := genRecord(rng, i)
		want.Seq = uint64(i + 1)
		b, err := encodeRecord(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRecord(b)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestAppendReopenScan(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s.store")
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var want []Record
	for i := 0; i < 300; i++ {
		r := genRecord(rng, i)
		seq, err := st.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		r.Seq = seq
		want = append(want, r)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := st2.Select(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen scan: got %d records, want %d (or contents differ)", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("scan out of order at %d: %d then %d", i, got[i-1].Seq, got[i].Seq)
		}
	}
	// The run index matches the run records in the log.
	var wantRuns []Record
	for _, r := range want {
		if r.Type == TypeRun {
			wantRuns = append(wantRuns, r)
		}
	}
	if !reflect.DeepEqual(st2.Runs(), wantRuns) {
		t.Fatalf("run index diverges from log: %d vs %d runs", len(st2.Runs()), len(wantRuns))
	}
}

func TestSegmentRollAndAlignment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s.store")
	// Tiny segments force several rolls.
	st, err := Open(dir, Options{MaxSegment: 2 * PageSize})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	n := 400
	for i := 0; i < n; i++ {
		if _, err := st.Append(genRecord(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.segs) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(st.segs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) < 3 {
		t.Fatalf("expected >= 3 segment files, got %v", segs)
	}
	for _, p := range segs {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < PageSize {
			t.Fatalf("%s shorter than one header page", p)
		}
		if string(b[:8]) != "CAMCSTOR" {
			t.Fatalf("%s missing segment magic", p)
		}
		if v := binary.LittleEndian.Uint32(b[8:12]); v != FormatVersion {
			t.Fatalf("%s header version %d", p, v)
		}
	}
	// Reopen with the default threshold still replays everything.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != n {
		t.Fatalf("reopen after rolls: %d records, want %d", st2.Len(), n)
	}
}

// TestCrashTruncationRecovery is the durability property test of the
// issue: append N records, sync, then simulate a crash by truncating
// the log at a random byte inside the tail; reopening must recover
// exactly the records whose frames survived intact, in order, with
// checksums verified — and the store must accept further appends.
func TestCrashTruncationRecovery(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			dir := filepath.Join(t.TempDir(), "s.store")
			st, err := Open(dir, Options{MaxSegment: 4 * PageSize})
			if err != nil {
				t.Fatal(err)
			}
			var want []Record
			n := 50 + rng.Intn(200)
			for i := 0; i < n; i++ {
				r := genRecord(rng, i)
				seq, err := st.Append(r)
				if err != nil {
					t.Fatal(err)
				}
				r.Seq = seq
				want = append(want, r)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
			sort.Strings(segs)
			last := segs[len(segs)-1]
			fi, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() <= PageSize {
				t.Skip("last segment holds no records")
			}
			// Crash: chop the last segment at a random byte after the
			// header (possibly mid-frame, possibly on a boundary).
			cut := PageSize + rng.Int63n(fi.Size()-PageSize)
			if err := os.Truncate(last, cut); err != nil {
				t.Fatal(err)
			}

			st2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after truncation at %d/%d: %v", cut, fi.Size(), err)
			}
			got, err := st2.Select(Filter{})
			if err != nil {
				t.Fatal(err)
			}
			// The recovered log must be a prefix of what was written.
			if len(got) > len(want) {
				t.Fatalf("recovered %d records, wrote %d", len(got), len(want))
			}
			if !reflect.DeepEqual(got, want[:len(got)]) {
				t.Fatalf("recovered records are not the written prefix (len %d)", len(got))
			}
			// Appending after recovery continues the sequence.
			extra := genRecord(rng, n)
			seq, err := st2.Append(extra)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) > 0 && seq <= got[len(got)-1].Seq {
				t.Fatalf("post-recovery seq %d not beyond recovered tail %d", seq, got[len(got)-1].Seq)
			}
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
			st3, err := Open(dir, Options{ReadOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			if st3.Len() != len(got)+1 {
				t.Fatalf("after recovery+append: %d records, want %d", st3.Len(), len(got)+1)
			}
		})
	}
}

// TestCorruptTailBitFlip flips a byte in the last segment's final
// record frame: replay must drop that record (checksum) but keep the
// prefix.
func TestCorruptTailBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dir := filepath.Join(t.TempDir(), "s.store")
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 40; i++ {
		r := genRecord(rng, i)
		seq, _ := st.Append(r)
		r.Seq = seq
		want = append(want, r)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	last := segs[len(segs)-1]
	b, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte near the end (inside the final frame's payload).
	b[len(b)-5] ^= 0xFF
	if err := os.WriteFile(last, b, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.Select(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)-1 {
		t.Fatalf("bit flip in final frame: recovered %d records, want %d", len(got), len(want)-1)
	}
	if !reflect.DeepEqual(got, want[:len(got)]) {
		t.Fatal("recovered records are not the written prefix")
	}
}

// Mid-log corruption (not the final segment) must refuse to open
// rather than silently dropping interior history.
func TestMidLogCorruptionRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := filepath.Join(t.TempDir(), "s.store")
	st, err := Open(dir, Options{MaxSegment: 2 * PageSize})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := st.Append(genRecord(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.segs) < 2 {
		t.Fatal("need at least two segments")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	sort.Strings(segs)
	first := segs[0]
	b, _ := os.ReadFile(first)
	b[PageSize+20] ^= 0xFF
	if err := os.WriteFile(first, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("open succeeded despite mid-log corruption")
	}
}

func TestNewerFormatVersionRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s.store")
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(Record{Type: TypeRun, RunID: "r1", Source: "bench"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "00000001.seg")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[8:12], FormatVersion+7)
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if err == nil {
		t.Fatal("opened a store with a newer format version")
	}
	for _, wantSub := range []string{"format version", "newer"} {
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("version error %q does not mention %q", err, wantSub)
		}
	}
}

func TestOpenRejectsNonSegmentFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s.store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "00000001.seg"), []byte("not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("opened a directory with a bogus segment")
	}
}

func TestReadOnlyOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "absent.store"), Options{ReadOnly: true}); err == nil {
		t.Fatal("read-only open of a missing store succeeded")
	}
}

// TestReadOnlyToleratesTornTail pins the crash-then-query path: a store
// whose writer died mid-append must still open read-only (camc-report
// has no business truncating), serving the intact prefix and leaving
// the residue bytes on disk untouched.
func TestReadOnlyToleratesTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dir := filepath.Join(t.TempDir(), "s.store")
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 30; i++ {
		r := genRecord(rng, i)
		seq, _ := st.Append(r)
		r.Seq = seq
		want = append(want, r)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// Crash: chop mid-way through the final frame.
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	cut, _ := os.Stat(last)

	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only open of a torn store: %v", err)
	}
	got, err := ro.Select(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= len(want) {
		t.Fatalf("recovered %d records, want a proper prefix of %d", len(got), len(want))
	}
	if !reflect.DeepEqual(got, want[:len(got)]) {
		t.Fatal("recovered records are not the written prefix")
	}
	// The residue stays on disk: read-only means read-only.
	after, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != cut.Size() {
		t.Fatalf("read-only open changed the segment size %d -> %d", cut.Size(), after.Size())
	}
}
