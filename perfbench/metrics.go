package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef declares one reported metric. The lists below must match
// BENCHMARK.json exactly (metrics_test.go checks it).
type metricDef struct{ Name, Unit string }

// endToEnd metrics are reported with --trace 0 on every workload, each
// mapped to the workload's user-visible operation: a training job from
// request to guaranteed model, or a predict request.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer metrics are reported with --trace 1 on every workload; a layer
// the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"failed_frac", "fraction"},
	{"guarantee_miss_frac", "fraction"},
	{"core.initial_train_ms_p50", "ms"},
	{"core.statistics_ms_p50", "ms"},
	{"core.search_ms_p50", "ms"},
	{"core.final_train_ms_p50", "ms"},
	{"core.self_ms_per_job", "ms"},
	{"core.sample_frac", "fraction"},
	{"core.early_exit_frac", "fraction"},
	{"core.probes_per_job", "count"},
	{"core.grads_calls", "count"},
	{"optimize.initial_iters", "count"},
	{"optimize.final_iters", "count"},
	{"linalg.kernel_calls", "count"},
	{"linalg.flops", "count"},
	{"linalg.kernel_ms", "ms"},
	{"compute.parallel_calls", "count"},
	{"compute.helpers_spawned", "count"},
	{"compute.cpu_ms", "ms"},
	{"compute.busy_frac", "fraction"},
	{"dataset.rows_materialized", "count"},
	{"dataset.materialize_ms", "ms"},
	{"store.rows_materialized", "count"},
	{"store.bytes_materialized", "bytes"},
	{"store.materialize_ms", "ms"},
	{"store.ingest_s", "s"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.client_overhead_ms_p50", "ms"},
	{"serve.registry_io_ms", "ms"},
	{"serve.route_predict_ms_p50", "ms"},
	{"serve.route_predict_ms_p99", "ms"},
	{"serve.client_server_gap_ms_p99", "ms"},
	{"serve.capacity_qps", "1/s"},
	{"predict_lo_ms_p99", "ms"},
	{"predict_hi_ms_p50", "ms"},
	{"predict_hi_ms_p99", "ms"},
	{"obs.trace_overhead_frac", "fraction"},
	{"obs.spans_per_job", "count"},
	{"obs.dropped_spans", "count"},
	{"loadgen.lag_ms_p99", "ms"},
	{"loadgen.achieved_frac", "fraction"},
	{"loadgen.client_cpu_frac", "fraction"},
	{"loadgen.generator_limited", "count"},
	{"go.server_cpu_s", "s"},
	{"go.alloc_mb_per_job", "MB"},
	{"go.gc_cycles_per_job", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet returns the definitions reported in the given trace mode.
func metricSet(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// buildResult selects exactly the metrics of defs from values; a missing
// or non-finite value is an error, never a silently dropped metric.
func buildResult(defs []metricDef, values map[string]float64, correct bool, attempted, failed int) (result, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
