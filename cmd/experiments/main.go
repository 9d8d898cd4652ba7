// Command experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic datasets.
//
// Usage:
//
//	experiments                       # everything, default scale 0.25
//	experiments -exp table5           # one experiment
//	experiments -scale 0.5 -m 100     # bigger graphs, bigger budget
//
// Experiments: table1 table2 table3 table4 table5 table6 fig1 fig2 fig3,
// plus the beyond-the-paper runs: ablation-landmarks ablation-cover
// ablation-strategy extensions streaming latency, or all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	convergence "repro"
	"repro/internal/eval"
	"repro/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1..table6, fig1..fig3, or all")
	scale := flag.Float64("scale", 0.25, "dataset size relative to the paper")
	seed := flag.Int64("seed", 42, "seed for generation and randomized selectors")
	m := flag.Int("m", 50, "endpoint budget for budgeted experiments")
	l := flag.Int("l", 10, "landmark count")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "BFS parallelism")
	csvDir := flag.String("csvdir", "", "also write figure/table data series as CSV files into this directory")
	plot := flag.Bool("plot", false, "render figure series as terminal sparklines")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the budgeted end-to-end runs (table1 rows)")
	ocli := obs.BindCLIFlags(flag.CommandLine)
	flag.Parse()

	if err := ocli.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := ocli.Finish(); err != nil {
			fatal(err)
		}
	}()

	if *exp == "list" {
		for _, name := range []string{
			"table1", "table2", "table3", "table4", "table5", "table6",
			"fig1", "fig2", "fig3",
			"ablation-landmarks", "ablation-cover", "ablation-strategy",
			"extensions", "streaming", "oracle", "oracle-accuracy",
			"structure", "expansion", "weighted", "snapshot-sweep", "latency",
		} {
			fmt.Println(name)
		}
		return
	}
	start := time.Now()
	var tr *convergence.Trace
	if *traceOut != "" {
		tr = convergence.NewTrace("experiments " + *exp)
	}
	suite, err := eval.NewSuite(eval.SuiteConfig{
		Scale: *scale, Seed: *seed, Workers: *workers, M: *m, L: *l, Trace: tr,
	})
	if err != nil {
		fatal(err)
	}
	for _, ds := range suite.Datasets {
		full := ds.Ev.SnapshotFraction(1.0)
		fmt.Printf("generated %-14s %6d nodes %6d edges\n", ds.Name, full.NumNodes(), full.NumEdges())
	}
	fmt.Println()

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false
	run := func(name string, fn func() (fmt.Stringer, error)) {
		if !want(name) {
			return
		}
		ran = true
		t0 := time.Now()
		res, err := fn()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println(res)
		fmt.Printf("[%s took %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	run("table1", func() (fmt.Stringer, error) { return suite.Table1("Facebook") })
	run("table2", func() (fmt.Stringer, error) { return suite.Table2() })
	run("table3", func() (fmt.Stringer, error) { return suite.Table3() })
	if want("table4") {
		ran = true
		fmt.Println(eval.Table4())
	}
	run("table5", func() (fmt.Stringer, error) { return suite.Table5() })
	run("table6", func() (fmt.Stringer, error) { return suite.Table6() })
	run("fig1", func() (fmt.Stringer, error) {
		figs, err := suite.Figure1(nil)
		if err == nil && *plot {
			for _, fig := range figs {
				fmt.Println(fig.Chart())
			}
		}
		return multi(figs), err
	})
	if want("fig2") {
		ran = true
		inPairs, inCover, err := suite.Figure2("Facebook", nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println(inPairs)
		fmt.Println(inCover)
	}
	run("fig3", func() (fmt.Stringer, error) {
		figs, err := suite.Figure3(nil)
		if err == nil && *plot {
			for _, fig := range figs {
				fmt.Println(fig.Chart())
			}
		}
		return multi(figs), err
	})
	run("ablation-landmarks", func() (fmt.Stringer, error) { return suite.AblationLandmarkCount(nil) })
	run("ablation-cover", func() (fmt.Stringer, error) { return suite.AblationCoverStrategy() })
	run("ablation-strategy", func() (fmt.Stringer, error) { return suite.AblationLandmarkStrategy() })
	run("extensions", func() (fmt.Stringer, error) { return suite.ExtensionsTable() })
	run("streaming", func() (fmt.Stringer, error) { return suite.StreamingTable(4) })
	run("oracle", func() (fmt.Stringer, error) { return suite.OracleTable() })
	run("oracle-accuracy", func() (fmt.Stringer, error) { return suite.OracleAccuracy() })
	run("structure", func() (fmt.Stringer, error) { return suite.StructureTable() })
	run("expansion", func() (fmt.Stringer, error) { return suite.ExpansionTable() })
	run("weighted", func() (fmt.Stringer, error) { return suite.WeightedTable() })
	run("snapshot-sweep", func() (fmt.Stringer, error) { return suite.SnapshotSweep(nil) })
	run("latency", func() (fmt.Stringer, error) {
		lat, err := suite.LatencyTable(5)
		if err != nil {
			return nil, err
		}
		fmt.Println(lat)
		return eval.FlightSummary(), nil
	})

	if *csvDir != "" {
		if err := writeCSVs(suite, *csvDir); err != nil {
			fatal(err)
		}
		fmt.Printf("CSV series written to %s\n", *csvDir)
	}

	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	if tr != nil {
		if err := tr.WriteChromeFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (sssp by phase: %v)\n", *traceOut, tr.SSSPByPhase())
	}
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
}

// multi joins several figure results into one Stringer.
type multi []*eval.FigureResult

func (m multi) String() string {
	var b strings.Builder
	for i, fig := range m {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(fig.String())
	}
	return b.String()
}

// writeCSVs regenerates the main data series (Table 5 and the three
// figures) as CSV files for external plotting.
func writeCSVs(suite *eval.Suite, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(w io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	t5, err := suite.Table5()
	if err != nil {
		return err
	}
	if err := write("table5.csv", t5.WriteCSV); err != nil {
		return err
	}
	fig1, err := suite.Figure1(nil)
	if err != nil {
		return err
	}
	for _, fig := range fig1 {
		if err := write("fig1_"+fig.Dataset+".csv", fig.WriteCSV); err != nil {
			return err
		}
	}
	inPairs, inCover, err := suite.Figure2("Facebook", nil)
	if err != nil {
		return err
	}
	if err := write("fig2a_facebook.csv", inPairs.WriteCSV); err != nil {
		return err
	}
	if err := write("fig2b_facebook.csv", inCover.WriteCSV); err != nil {
		return err
	}
	fig3, err := suite.Figure3(nil)
	if err != nil {
		return err
	}
	for _, fig := range fig3 {
		if err := write("fig3_"+fig.Dataset+".csv", fig.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
