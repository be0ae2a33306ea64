// Command experiments runs the paper's evaluation campaign (§V) and
// regenerates its figures and summary statistics: actual transfers are
// executed on the emulated Grid'5000 testbed, predictions are obtained
// from the forecast service, and per-size error distributions are
// rendered as text box plots and CSV files.
//
// Usage:
//
//	experiments [-fig fig3|...|fig11|all] [-reps N] [-sizes N]
//	            [-out DIR] [-seed N] [-quick]
//
// -quick trims the sweep to 4 sizes x 3 repetitions for a fast pass.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pilgrim/internal/experiments"
	"pilgrim/internal/g5k"
	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platgen"
	"pilgrim/internal/plot"
	"pilgrim/internal/sim"
	"pilgrim/internal/stats"
	"pilgrim/internal/testbed"
)

func main() {
	fig := flag.String("fig", "all", "figure to run (fig3..fig11) or all")
	reps := flag.Int("reps", 0, "repetitions per size (0 = paper's 10)")
	nsizes := flag.Int("sizes", 0, "number of size points (0 = paper's 10)")
	out := flag.String("out", "", "directory for CSV output (default: none)")
	quick := flag.Bool("quick", false, "fast pass: 4 sizes x 3 reps")
	variant := flag.String("variant", "g5k_test", "forecast platform: g5k_test or g5k_cabinets")
	flag.Parse()

	if err := run(*fig, *reps, *nsizes, *out, *quick, *variant); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(figArg string, reps, nsizes int, outDir string, quick bool, variantArg string) error {
	var specs []experiments.Spec
	if figArg == "all" {
		specs = experiments.Figures()
	} else {
		spec, ok := experiments.FigureByID(figArg)
		if !ok {
			return fmt.Errorf("unknown figure %q (fig3..fig11)", figArg)
		}
		specs = []experiments.Spec{spec}
	}

	sizes := experiments.PaperSizes()
	if quick {
		sizes = stats.GeomSpace(1e5, 1e10, 4)
		if reps == 0 {
			reps = 3
		}
	}
	if nsizes > 1 {
		sizes = stats.GeomSpace(1e5, 1e10, nsizes)
	}
	for i := range specs {
		specs[i].Sizes = sizes
		if reps > 0 {
			specs[i].Reps = reps
		}
	}

	var opts platgen.Options
	var ok bool
	if opts.Variant, ok = platgen.ParseVariant(variantArg); !ok {
		return fmt.Errorf("unknown variant %q", variantArg)
	}

	ref := g5k.Default()
	plat, err := platgen.Generate(ref, opts)
	if err != nil {
		return err
	}
	runner, err := experiments.NewRunner(ref, testbed.DefaultConfig(),
		pilgrim.PlatformEntry{Platform: plat, Config: sim.DefaultConfig()})
	if err != nil {
		return err
	}

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}

	// Figures run one after another; the first failure stops the campaign.
	results := make([]*experiments.Result, 0, len(specs))
	for _, spec := range specs {
		res, err := runFigure(runner, spec, outDir)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.ID, err)
		}
		results = append(results, res)
	}

	sum := experiments.Summarize(results)
	paper := experiments.PaperSummary
	fmt.Println(plot.Table(fmt.Sprintf("Global accuracy over %d transfers with size > %.3g B (paper §V-B):", sum.N, experiments.LargeTransferThreshold),
		[][2]string{
			{"median |error|", fmt.Sprintf("%.3f   (paper: %.3f)", sum.MedianAbsError, paper.MedianAbsError)},
			{"error std dev", fmt.Sprintf("%.3f   (paper: %.3f)", sum.StdDevError, paper.StdDevError)},
			{"fraction |error| < 0.575", fmt.Sprintf("%.2f   (paper: %.2f)", sum.FractionBelow0575, paper.FractionBelow0575)},
		}))

	if outDir != "" {
		f, err := os.Create(filepath.Join(outDir, "summary.txt"))
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(f, "n=%d median_abs_error=%.4f stddev=%.4f frac_below_0.575=%.4f\n",
			sum.N, sum.MedianAbsError, sum.StdDevError, sum.FractionBelow0575)
		for _, r := range results {
			fmt.Fprintf(f, "%s large_size_median_error=%+.4f small_size_median_error=%+.4f\n",
				r.Spec.ID, r.LargeSizeMedianError(), r.SmallSizeMedianError())
		}
	}
	return nil
}

// runFigure runs one figure's sweep, prints its box plot and error summary,
// and, given an output directory, writes the figure's CSV there.
func runFigure(runner *experiments.Runner, spec experiments.Spec, outDir string) (*experiments.Result, error) {
	start := time.Now()
	res, err := runner.RunFigure(spec)
	if err != nil {
		return nil, err
	}
	figure := res.Figure()
	fmt.Println(figure.RenderASCII(18))
	fmt.Printf("  [%s completed in %.1fs; large-size median error %+.3f, small-size %+.3f]\n\n",
		spec.ID, time.Since(start).Seconds(),
		res.LargeSizeMedianError(), res.SmallSizeMedianError())
	if outDir == "" {
		return res, nil
	}
	f, err := os.Create(filepath.Join(outDir, spec.ID+".csv"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := figure.WriteCSV(f); err != nil {
		return nil, err
	}
	return res, nil
}
