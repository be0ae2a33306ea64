// Command platgen converts a Grid'5000 reference description into a
// simulator platform file — the paper's "Grid'5000 to SimGrid wrapper"
// (§IV-C2).
//
// Usage:
//
//	platgen [-variant g5k_test|g5k_cabinets] [-flat] [-equipment-limits]
//	        [-measured-latencies] [-g5k-api URL | -json FILE] [-o FILE]
//	        [-stats]
package main

import (
	"flag"
	"fmt"
	"os"

	"pilgrim/internal/g5k"
	"pilgrim/internal/platform"
	"pilgrim/internal/platgen"
)

func main() {
	variant := flag.String("variant", "g5k_test", "platform flavour: g5k_test or g5k_cabinets")
	flat := flag.Bool("flat", false, "single-AS platform with a full route table (pre-hierarchical-routing ablation)")
	equipLimits := flag.Bool("equipment-limits", false, "model equipment backplane limits")
	measuredLat := flag.Bool("measured-latencies", false, "use measured backbone latencies")
	g5kAPI := flag.String("g5k-api", "", "fetch the reference from this API base URL")
	jsonFile := flag.String("json", "", "read the reference from this JSON file")
	out := flag.String("o", "", "output platform XML file (default stdout)")
	showStats := flag.Bool("stats", false, "print platform statistics to stderr")
	flag.Parse()

	if err := run(*variant, *flat, *equipLimits, *measuredLat, *g5kAPI, *jsonFile, *out, *showStats); err != nil {
		fmt.Fprintln(os.Stderr, "platgen:", err)
		os.Exit(1)
	}
}

func run(variant string, flat, equipLimits, measuredLat bool, g5kAPI, jsonFile, out string, showStats bool) error {
	ref := g5k.Default()
	switch {
	case g5kAPI != "" && jsonFile != "":
		return fmt.Errorf("use either -g5k-api or -json, not both")
	case g5kAPI != "":
		fetched, err := g5k.Fetch(nil, g5kAPI)
		if err != nil {
			return err
		}
		ref = fetched
	case jsonFile != "":
		f, err := os.Open(jsonFile)
		if err != nil {
			return err
		}
		loaded, err := g5k.ReadJSON(f)
		f.Close()
		if err != nil {
			return err
		}
		ref = loaded
	}

	opts := platgen.Options{
		Flat:                 flat,
		EquipmentLimits:      equipLimits,
		UseMeasuredLatencies: measuredLat,
	}
	var ok bool
	if opts.Variant, ok = platgen.ParseVariant(variant); !ok {
		return fmt.Errorf("unknown variant %q", variant)
	}

	plat, err := platgen.Generate(ref, opts)
	if err != nil {
		return err
	}
	if showStats {
		fmt.Fprintf(os.Stderr, "platform: %d hosts, %d links\n", plat.NumHosts(), plat.NumLinks())
	}

	var w *os.File = os.Stdout
	if out != "" {
		w, err = os.Create(out)
		if err != nil {
			return err
		}
		defer w.Close()
	}
	return writePlatform(plat, w)
}

func writePlatform(p *platform.Platform, f *os.File) error {
	if err := p.WriteXML(f); err != nil {
		return err
	}
	return f.Sync()
}
