package core

import (
	"slices"
	"testing"
)

// rdHave is the reference for rdRow: it simulates recursive doubling
// over every rank at once. steps[k][rank] is the sorted block list rank
// holds after step k; steps[0] is the initial single-own-block state.
func rdHave(p int) [][][]int {
	nsteps := ceilLog(2, p)
	cur := make([][]int, p)
	for r := range cur {
		cur[r] = []int{r}
	}
	out := [][][]int{cur}
	for k := 0; k < nsteps; k++ {
		next := make([][]int, p)
		for r := 0; r < p; r++ {
			if partner := r ^ (1 << k); partner < p {
				next[r] = mergeSorted(cur[r], cur[partner])
			} else {
				next[r] = cur[r]
			}
		}
		cur = next
		out = append(out, cur)
	}
	return out
}

func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// TestRDRowMatchesTable requires the closed-form row of every rank after
// every step to equal the all-ranks simulation, for every p up to 1100
// (past every rank count an experiment runs on one node; through 300
// under -short or -race).
func TestRDRowMatchesTable(t *testing.T) {
	maxP := 1100
	if testing.Short() || raceDetectorOn {
		maxP = 300
	}
	var row []int
	for p := 1; p <= maxP; p++ {
		have := rdHave(p)
		for k, rows := range have {
			for r, want := range rows {
				if row = rdRow(row, p, k, r); !slices.Equal(row, want) {
					t.Fatalf("p=%d k=%d rank %d: rdRow = %v, table = %v", p, k, r, row, want)
				}
			}
		}
	}
}

func TestRDHaveCoversAll(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 12, 28, 31, 32} {
		nsteps := ceilLog(2, p)
		for r := 0; r < p; r++ {
			// Non-power-of-two ranks may miss blocks (patched later),
			// but each rank must at least hold its own block.
			row := rdRow(nil, p, nsteps, r)
			if !slices.Contains(row, r) {
				t.Fatalf("p=%d: rank %d lost its own block", p, r)
			}
			if isPow2(p) && len(row) != p {
				t.Fatalf("p=%d (pow2): rank %d holds %d of %d blocks", p, r, len(row), p)
			}
		}
	}
}
