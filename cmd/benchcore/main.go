// Command benchcore runs the distributed scaling study — loopback fleets at
// 2/4/8/16 workers with adaptive and fixed lease sizing, plus a real-HTTP
// fleet — and writes its rows as machine-readable JSON:
//
//	benchcore -o BENCH_dist.json
//	make bench-dist
//
// Lease overhead, steal efficiency and fleet utilization are the one thing
// the end-to-end benchmark workloads (BENCHMARK.json) cannot measure. Set
// HSFSIM_KERNEL_ISA to force a kernel arm for the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	out := flag.String("o", "BENCH_dist.json", "output file (- for stdout)")
	flag.Parse()

	data, err := json.MarshalIndent(distStudy(), "", "  ")
	fail(err)
	data = append(data, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
		fmt.Fprintf(os.Stderr, "benchcore: wrote %s\n", *out)
	}
	fail(err)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcore:", err)
		os.Exit(1)
	}
}
