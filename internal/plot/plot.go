// Package plot renders the paper's figure style as text: per-transfer-size
// error box plots (median, quartiles, whiskers) with the median measured
// duration overlaid on a logarithmic right axis — the layout of Figures
// 3-11 — plus CSV output for external plotting.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"

	"pilgrim/internal/stats"
)

// Figure is the data of one paper-style figure.
type Figure struct {
	Title string
	// Sizes are the transfer sizes (bytes), one column per entry.
	Sizes []float64
	// Boxes hold the log2-error distribution summary per size.
	Boxes []stats.BoxSummary
	// Durations hold the median measured duration (seconds) per size.
	Durations []float64
}

// Validate checks structural consistency.
func (f *Figure) Validate() error {
	if len(f.Sizes) == 0 {
		return fmt.Errorf("plot: figure %q has no columns", f.Title)
	}
	if len(f.Boxes) != len(f.Sizes) || len(f.Durations) != len(f.Sizes) {
		return fmt.Errorf("plot: figure %q has inconsistent columns", f.Title)
	}
	return nil
}

// WriteCSV emits one row per size with the box summary and duration.
func (f *Figure) WriteCSV(w io.Writer) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "size_bytes,err_median,err_q1,err_q3,err_whisker_lo,err_whisker_hi,n,duration_median_s"); err != nil {
		return err
	}
	for i, size := range f.Sizes {
		b := f.Boxes[i]
		if _, err := fmt.Fprintf(w, "%.3e,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%.6g\n",
			size, b.Median, b.Q1, b.Q3, b.WhiskLo, b.WhiskHi, b.N, f.Durations[i]); err != nil {
			return err
		}
	}
	return nil
}

// RenderASCII draws the figure as a text chart of the given height (rows
// of the error axis; 8 minimum). Each size column shows the error box
// ('#' between quartiles, '|' whiskers, 'M' median) and the duration line
// ('d', right log axis).
func (f *Figure) RenderASCII(height int) string {
	if err := f.Validate(); err != nil {
		return err.Error() + "\n"
	}
	if height < 8 {
		height = 8
	}

	// Error axis bounds, padded.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, b := range f.Boxes {
		lo = math.Min(lo, b.WhiskLo)
		hi = math.Max(hi, b.WhiskHi)
	}
	lo = math.Min(lo, 0) // always show the zero-error line
	hi = math.Max(hi, 0)
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	// float64() rounds: no fused multiply-add on any GOARCH (make fma-check).
	lo -= float64(span * 0.05)
	hi += float64(span * 0.05)
	span = hi - lo

	// Duration axis: log10 over observed range.
	dlo, dhi := math.Inf(1), math.Inf(-1)
	for _, d := range f.Durations {
		if d > 0 {
			dlo = math.Min(dlo, math.Log10(d))
			dhi = math.Max(dhi, math.Log10(d))
		}
	}
	if math.IsInf(dlo, 1) {
		dlo, dhi = 0, 1
	}
	if dhi-dlo < 1e-9 {
		dhi = dlo + 1
	}

	rowOf := func(v float64) int {
		r := int(math.Round((hi - v) / span * float64(height-1)))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	durRowOf := func(d float64) int {
		if d <= 0 {
			return height - 1
		}
		// float64() rounds: no fused multiply-add on any GOARCH (make fma-check).
		frac := (dhi - float64(math.Log10(d))) / (dhi - dlo)
		r := int(math.Round(frac * float64(height-1)))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}

	const colW = 7
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", colW*len(f.Sizes)))
	}
	// Zero-error line.
	zr := rowOf(0)
	for x := 0; x < colW*len(f.Sizes); x++ {
		grid[zr][x] = '.'
	}

	for i := range f.Sizes {
		b := f.Boxes[i]
		center := i*colW + colW/2
		// Whiskers.
		for r := rowOf(b.WhiskHi); r <= rowOf(b.Q3); r++ {
			grid[r][center] = '|'
		}
		for r := rowOf(b.Q1); r <= rowOf(b.WhiskLo); r++ {
			grid[r][center] = '|'
		}
		// Box body.
		for r := rowOf(b.Q3); r <= rowOf(b.Q1); r++ {
			for dx := -1; dx <= 1; dx++ {
				grid[r][center+dx] = '#'
			}
		}
		// Median mark.
		mr := rowOf(b.Median)
		for dx := -1; dx <= 1; dx++ {
			grid[mr][center+dx] = 'M'
		}
		// Duration point (right axis, log scale).
		dr := durRowOf(f.Durations[i])
		x := center + 2
		if grid[dr][x] == ' ' || grid[dr][x] == '.' {
			grid[dr][x] = 'd'
		}
	}

	var out strings.Builder
	fmt.Fprintf(&out, "%s\n", f.Title)
	fmt.Fprintf(&out, "error log2(prediction)-log2(measure) [left], median duration 'd' [right, log10 %.2g..%.2g s]\n",
		math.Pow(10, dlo), math.Pow(10, dhi))
	for r := 0; r < height; r++ {
		// float64() rounds: no fused multiply-add on any GOARCH (make fma-check).
		v := hi - float64(float64(r)/float64(height-1)*span)
		fmt.Fprintf(&out, "%7.2f %s\n", v, string(grid[r]))
	}
	// X axis labels: one tick per size column.
	out.WriteString("        ")
	for _, s := range f.Sizes {
		out.WriteString(fmt.Sprintf("%-*s", colW, fmt.Sprintf("%.2g", s)))
	}
	out.WriteString("\n        transfer size (bytes)\n")
	return out.String()
}

// Table renders aligned rows of (label, value) pairs — used by the
// summary-statistics outputs.
func Table(title string, rows [][2]string) string {
	var out strings.Builder
	out.WriteString(title + "\n")
	width := 0
	for _, r := range rows {
		if len(r[0]) > width {
			width = len(r[0])
		}
	}
	for _, r := range rows {
		fmt.Fprintf(&out, "  %-*s  %s\n", width, r[0], r[1])
	}
	return out.String()
}
