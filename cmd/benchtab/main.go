// Command benchtab regenerates every table and figure of the paper's
// evaluation:
//
//	benchtab -table1           # Table I: method runtimes on QAOA instances
//	benchtab -table2           # Table II: instance specifications
//	benchtab -fig3b            # Fig. 3b: path count vs. depth
//	benchtab -cascades         # Ex. 4: CNOT cascade study
//	benchtab -supremacy        # Sec. V extension: grid circuits
//	benchtab -all              # everything
//
// The default -scale small runs laptop-sized analogues of the paper's
// instances (q = 16…20); -scale paper builds the exact q30–q33 family, which
// needs a machine comparable to the paper's (16 cores, 128 GB RAM).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"hsfsim/internal/bench"
	"hsfsim/internal/qaoa"
)

func main() {
	var (
		table1    = flag.Bool("table1", false, "regenerate Table I (runtimes)")
		table2    = flag.Bool("table2", false, "regenerate Table II (instance specs)")
		fig3b     = flag.Bool("fig3b", false, "regenerate Fig. 3b (paths vs. depth)")
		cascades  = flag.Bool("cascades", false, "regenerate the Ex. 4 cascade study")
		supremacy = flag.Bool("supremacy", false, "run the Sec. V supremacy extension")
		layers    = flag.Bool("layers", false, "run the multi-layer QAOA depth study")
		backends  = flag.Bool("backends", false, "compare array / DD backends")
		manybody  = flag.Bool("manybody", false, "run the many-body Trotter study (ref [35])")
		all       = flag.Bool("all", false, "run every experiment")
		scale     = flag.String("scale", "small", "instance scale: small | medium | paper")
		reps      = flag.Int("reps", 3, "repetitions per Table I measurement")
		amps      = flag.Int("amplitudes", 1<<14, "number of output amplitudes")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-run timeout for standard HSF")
		workers   = flag.Int("workers", 0, "worker goroutines (0: all CPUs)")
		csvDir    = flag.String("csv", "", "also write each study as CSV into this directory")
	)
	flag.Parse()
	if *all {
		*table1, *table2, *fig3b, *cascades = true, true, true, true
		*supremacy, *layers, *backends, *manybody = true, true, true, true
	}
	if !*table1 && !*table2 && !*fig3b && !*cascades && !*supremacy && !*layers && !*backends && !*manybody {
		flag.Usage()
		os.Exit(2)
	}

	var specs []qaoa.InstanceSpec
	switch *scale {
	case "small":
		specs = qaoa.ScaledInstances()
	case "medium":
		specs = qaoa.MediumInstances()
	case "paper":
		specs = qaoa.PaperInstances()
		fmt.Fprintln(os.Stderr, "warning: paper scale needs ~128 GB RAM and hours of runtime")
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (small | medium | paper)\n", *scale)
		os.Exit(2)
	}

	if *fig3b {
		points, err := bench.Fig3Series(bench.Fig3MaxDepth)
		fail(err)
		fmt.Println(bench.RenderFig3(points))
		saveCSV(*csvDir, "fig3b", func(w io.Writer) error { return bench.WriteFig3CSV(w, points) })
	}
	if *cascades {
		points, err := bench.CascadeSeries(8)
		fail(err)
		fmt.Println(bench.RenderCascades(points))
		saveCSV(*csvDir, "cascades", func(w io.Writer) error { return bench.WriteCascadesCSV(w, points) })
	}
	if *table2 {
		rows, err := bench.RunTable2(specs)
		fail(err)
		fmt.Println(bench.RenderTable2(rows))
		saveCSV(*csvDir, "table2", func(w io.Writer) error { return bench.WriteTable2CSV(w, rows) })
	}
	if *table1 {
		cfg := bench.RunConfig{
			MaxAmplitudes: *amps,
			Timeout:       *timeout,
			Repetitions:   *reps,
			Workers:       *workers,
		}
		rows, err := bench.RunTable1(specs, cfg)
		fail(err)
		fmt.Println(bench.RenderTable1(rows, cfg))
		saveCSV(*csvDir, "table1", func(w io.Writer) error { return bench.WriteTable1CSV(w, rows) })
	}
	if *supremacy {
		rows, err := bench.RunSupremacy(bench.DefaultSupremacyCases(), *amps, *timeout)
		fail(err)
		fmt.Println(bench.RenderSupremacy(rows, *timeout))
		saveCSV(*csvDir, "supremacy", func(w io.Writer) error { return bench.WriteSupremacyCSV(w, rows) })
	}
	if *layers {
		spec := specs[0]
		points, err := bench.LayerSeries(spec, 4, *amps, *timeout)
		fail(err)
		fmt.Println(bench.RenderLayers(spec, points, *timeout))
		saveCSV(*csvDir, "layers", func(w io.Writer) error { return bench.WriteLayersCSV(w, points) })
	}
	if *backends {
		cases, err := bench.DefaultBackendCases()
		fail(err)
		rows, err := bench.RunBackends(cases)
		fail(err)
		fmt.Println(bench.RenderBackends(rows))
		saveCSV(*csvDir, "backends", func(w io.Writer) error { return bench.WriteBackendsCSV(w, rows) })
	}
	if *manybody {
		const sites = 16
		points, err := bench.ManybodySeries(sites, 8, *amps, *timeout)
		fail(err)
		fmt.Println(bench.RenderManybody(sites, points, *timeout))
		saveCSV(*csvDir, "manybody", func(w io.Writer) error { return bench.WriteManybodyCSV(w, points) })
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

// saveCSV writes one study to <dir>/<name>.csv when -csv is set.
func saveCSV(dir, name string, write func(io.Writer) error) {
	if dir == "" {
		return
	}
	fail(os.MkdirAll(dir, 0o755))
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	fail(err)
	fail(write(f))
	fail(f.Close())
}
