// Command perfbench is the repository benchmark. It times "request →
// guaranteed model" on the library path and through blinkml-serve, checks
// every model against a reference full-data fit and every prediction
// against the fetched parameters, and prints one JSON result line.
//
// Run it from the repository root through the wrapper, which builds this
// package and blinkml-serve from the tree under test first:
//
//	bash perfbench/run.sh --workload train-dense --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	train-dense    in-process core.TrainSourceContext over in-memory data:
//	               Criteo-like logistic (d=300) over an ε ladder and
//	               MNIST-like 10-class maxent (d=64).
//	serve-predict  blinkml-serve predictions over the open-loop generator
//	               at two fixed rates, plus a knee search; the model is
//	               trained from a stored LibSVM upload.
//
// With --trace 0 the result carries the end-to-end metrics, with --trace 1
// the per-layer ones (metrics.go lists both). A second JSON line before the
// result records the environment and the details behind the numbers. The
// exit code is non-zero when any output check or the deterministic-counter
// fingerprint fails.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"blinkml/internal/compute"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serveBin string
	workDir  string
	loQPS    float64
	hiQPS    float64
}

// outcome is what a workload run hands back for reporting.
type outcome struct {
	values    map[string]float64 // every metric the workload measured
	attempted int
	failed    int
	problems  []string       // failed output checks, fingerprint mismatches
	detail    map[string]any // recorded beside the result
}

func newOutcome() *outcome {
	return &outcome{values: make(map[string]float64), detail: make(map[string]any)}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// op records one attempted operation and whether it failed.
func (o *outcome) op(failed bool) {
	o.attempted++
	if failed {
		o.failed++
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"train-dense":   runTrainDense,
	"serve-predict": runServePredict,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "blinkml-serve binary (serve workloads)")
	flag.StringVar(&cfg.workDir, "work-dir", "", "scratch directory for server state")
	flag.Float64Var(&cfg.loQPS, "predict-lo-qps", 0, "serve-predict low fixed offered rate")
	flag.Float64Var(&cfg.hiQPS, "predict-hi-qps", 0, "serve-predict high fixed offered rate")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	fn, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	if err := guardEnv(cfg); err != nil {
		return err
	}
	out, err := fn(cfg)
	if err != nil {
		return err
	}
	out.detail["env"] = envStamp()
	out.detail["workload"] = cfg.workload
	out.detail["seed"] = cfg.seed
	out.detail["problems"] = out.problems
	if err := writeJSONLine(os.Stdout, out.detail); err != nil {
		return err
	}
	correct := len(out.problems) == 0 && out.failed == 0
	out.values["failed_frac"] = frac(out.failed, out.attempted)
	res, err := buildResult(metricSet(cfg.trace), out.values, correct, out.attempted, out.failed)
	if err != nil {
		return err
	}
	if err := writeJSONLine(os.Stdout, res); err != nil {
		return err
	}
	if !correct {
		return fmt.Errorf("output checks failed: %d of %d operations failed; %s", out.failed, out.attempted, strings.Join(out.problems, "; "))
	}
	return nil
}

// guardEnv refuses configurations whose client goroutines or connections
// exceed the machine's CPUs: the generator would then measure itself.
func guardEnv(cfg config) error {
	n := runtime.NumCPU()
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if cfg.workload == "serve-predict" {
		if connections > n {
			return fmt.Errorf("serve-predict wants %d connections but nproc is %d", connections, n)
		}
		if cfg.loQPS <= 0 || cfg.hiQPS <= cfg.loQPS {
			return errors.New("serve-predict needs 0 < --predict-lo-qps < --predict-hi-qps")
		}
	}
	if strings.HasPrefix(cfg.workload, "serve-") && (cfg.serveBin == "" || cfg.workDir == "") {
		return errors.New("serve workloads need --serve-bin and --work-dir (run through run.sh)")
	}
	return nil
}

// envStamp records what every result depends on besides the code.
func envStamp() map[string]any {
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"parallelism": compute.Parallelism(),
		"go_version":  runtime.Version(),
	}
}
