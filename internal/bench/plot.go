package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// ASCII rendering of a Table as a log-y line chart, for eyeballing the
// paper's figure shapes straight in a terminal, plus a CSV emitter for
// external plotting.

// plotGlyphs mark the series in drawing order.
var plotGlyphs = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&', '$', '~'}

// FprintPlot renders the table as a height×width ASCII chart with a
// logarithmic y axis (and the x values taken as equally spaced, matching
// the power-of-two sweeps). Non-positive values are skipped.
func (t *Table) FprintPlot(w io.Writer, width, height int) {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range t.Series {
		for _, v := range s.Values {
			if v <= 0 {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	fmt.Fprintf(w, "## %s (log-y plot)\n\n", t.Title)
	if math.IsInf(lo, 1) || len(t.XLabels) == 0 {
		fmt.Fprintln(w, "(no positive data)")
		return
	}
	if hi <= lo {
		hi = lo * 1.0001
	}
	logLo, logHi := math.Log(lo), math.Log(hi)
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	n := len(t.XLabels)
	colOf := func(xi int) int {
		if n == 1 {
			return 0
		}
		return xi * (width - 1) / (n - 1)
	}
	rowOf := func(v float64) int {
		frac := (math.Log(v) - logLo) / (logHi - logLo)
		r := int(math.Round(float64(height-1) * (1 - frac)))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	for si, s := range t.Series {
		g := plotGlyphs[si%len(plotGlyphs)]
		for xi, v := range s.Values {
			if xi >= n || v <= 0 {
				continue
			}
			grid[rowOf(v)][colOf(xi)] = g
		}
	}
	// Y-axis labels on the first, middle and last rows.
	yLabel := func(r int) string {
		frac := 1 - float64(r)/float64(height-1)
		return formatVal(math.Exp(logLo + frac*(logHi-logLo)))
	}
	labelW := 0
	for _, r := range []int{0, height / 2, height - 1} {
		if n := len(yLabel(r)); n > labelW {
			labelW = n
		}
	}
	for r := 0; r < height; r++ {
		lab := ""
		switch r {
		case 0, height / 2, height - 1:
			lab = yLabel(r)
		}
		fmt.Fprintf(w, "%*s |%s\n", labelW, lab, string(grid[r]))
	}
	fmt.Fprintf(w, "%*s +%s\n", labelW, "", strings.Repeat("-", width))
	fmt.Fprintf(w, "%*s  %-*s%s\n", labelW, "", width-len(t.XLabels[n-1]), t.XLabels[0], t.XLabels[n-1])
	var legend []string
	for si, s := range t.Series {
		legend = append(legend, fmt.Sprintf("%c=%s", plotGlyphs[si%len(plotGlyphs)], s.Name))
	}
	fmt.Fprintf(w, "legend: %s\n\n", strings.Join(legend, "  "))
}

// FprintCSV emits the table as CSV: header row of x plus series names,
// one row per x label.
func (t *Table) FprintCSV(w io.Writer) {
	cols := []string{csvEscape(t.XHeader)}
	for _, s := range t.Series {
		cols = append(cols, csvEscape(s.Name))
	}
	fmt.Fprintf(w, "# %s\n", t.Title)
	fmt.Fprintln(w, strings.Join(cols, ","))
	for xi, xl := range t.XLabels {
		row := []string{csvEscape(xl)}
		for _, s := range t.Series {
			if xi < len(s.Values) {
				row = append(row, fmt.Sprintf("%g", s.Values[xi]))
			} else {
				row = append(row, "")
			}
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
	fmt.Fprintln(w)
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Format selects how Experiment.RunFormatSink renders tables.
type Format int

// Output formats.
const (
	FormatTable Format = iota
	FormatPlot
	FormatCSV
)

// RunFormatSink generates the experiment's tables and renders them in
// the requested format (plots also print the numeric table beneath),
// handing every generated table to sink before rendering (nil sink
// allowed). The sink sees tables in output order, so store appends are
// deterministic, and recording never changes the printed output.
func (e *Experiment) RunFormatSink(w io.Writer, o Options, f Format, sink func(Table)) error {
	if err := o.check(); err != nil {
		return err
	}
	fmt.Fprintf(w, "=== %s: %s ===\n\n", e.ID, e.Title)
	for _, t := range e.Tables(o) {
		if sink != nil {
			sink(t)
		}
		switch f {
		case FormatPlot:
			t.FprintPlot(w, 64, 16)
			t.Fprint(w)
		case FormatCSV:
			t.FprintCSV(w)
		default:
			t.Fprint(w)
		}
	}
	return nil
}
