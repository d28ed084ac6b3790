// Command benchmark is the repository's gateable benchmark: four named
// workloads over one synthetic profile, end-to-end metrics from an
// untraced run, and per-layer metrics from a traced run that walks the
// kernel → comparator → index → shard → server → ingest ladder. Names,
// units, directions and bounds live in BENCHMARK.json at the root of the
// repository; README.md in this directory says why each was chosen.
//
// It reaches the program only through its public functions, generates
// all load from this one process, builds its own ground truth, and exits
// non-zero when the program's answers are wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"resinfer"
)

// procs is the GOMAXPROCS every run pins: the two cores of the box the
// baseline was recorded on (before Go 1.25 the runtime ignores a
// container's CPU quota, so an unpinned run would vary with the host).
const procs = 2

// buildDir holds everything the benchmark writes: WAL files of the
// mutable fixtures and, as spans-<workload>.json, the spans of traced
// runs.
const buildDir = ".bench_build"

// specFile is the benchmark definition, read from the root of the
// checkout the benchmark runs in.
const specFile = "BENCHMARK.json"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Int64("seed", 1, "seed for the dataset, the query order and the mutation mix")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	out := fs.String("out", "", "append each run's full record (metrics, config, machine) to this JSON-lines file")
	smoke := fs.Bool("smoke", false, "run at the small size the tests use")
	list := fs.Bool("list", false, "list workloads and metrics, then exit")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare base.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		return listSpec()
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare base.jsonl change.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}

	var todo []workloadSpec
	if *workload == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*workload); ok {
		todo = []workloadSpec{w}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q; -list names them\n", *workload)
		return 2
	}
	runtime.GOMAXPROCS(procs)
	p := fullParams()
	if *smoke {
		p = smokeParams()
	}
	scratch := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	e, err := newEnv(p, *seed, scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "generating inputs:", err)
		return 1
	}
	dur := time.Duration(*seconds * float64(time.Second))
	for _, w := range todo {
		var res *result
		if *trace == 0 {
			res, err = runEndToEnd(e, w, dur)
		} else {
			res, err = runTraced(e, w, dur)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.Name, err)
			return 1
		}
		if *trace != 0 {
			if err := writeJSON(filepath.Join(buildDir, "spans-"+w.Name+".json"), res.spans, false); err != nil {
				fmt.Fprintln(os.Stderr, "writing spans:", err)
				return 1
			}
		}
		if *out != "" {
			if err := writeJSON(*out, res, true); err != nil {
				fmt.Fprintln(os.Stderr, "writing record:", err)
				return 1
			}
		}
		printResult(res)
	}
	return 0
}

// printResult prints every metric by name with its unit, then, as the
// last line, the JSON object the driver reads.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d traced=%v attempted=%d failed=%d samples=%v\n",
		res.Workload, res.Seed, res.Traced, res.Attempted, res.Failed, res.Samples)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, msg := range res.Errors {
		fmt.Fprintln(os.Stderr, "failed operation:", msg)
	}
	line, _ := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Println(string(line))
}

// writeJSON writes v to path as one line of JSON, replacing the file or
// appending to it.
func writeJSON(path string, v any, appendTo bool) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendTo {
		mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, mode, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func listSpec() int {
	bf, err := loadBenchmarkFile(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println("workloads:")
	for _, w := range bf.Workloads {
		fmt.Printf("  %-14s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (untraced run, -trace 0):")
	for _, m := range bf.EndToEnd {
		fmt.Printf("  %-40s %-6s better=%-6s bound=%g\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Println("per-layer metrics (traced run, -trace 1):")
	for _, m := range bf.PerLayer {
		fmt.Printf("  %-40s %-6s better=%s\n", m.Name, m.Unit, m.Better)
	}
	return 0
}

// fingerprint identifies the machine and toolchain a record came from.
type fingerprint struct {
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	SIMD       string `json:"simd_level"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func machine() fingerprint {
	return fingerprint{
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, SIMD: resinfer.SIMDLevel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
	}
}

// cpuModel reads the processor name the kernel reports; empty where
// /proc/cpuinfo does not exist or names none.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}
