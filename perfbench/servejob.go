package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
	"blinkml/internal/serve"
)

const (
	pollInterval = 5 * time.Millisecond
	jobsDeadline = 120 * time.Second // a job that never ends fails the run
)

// storedDataset is one dataset in the server's store and how its jobs
// train on it.
type storedDataset struct {
	id   string // store id
	seed int64  // generator seed, also the jobs' shared split seed
	n0   int
}

// ingest uploads ds to the server's store as LibSVM and returns the stored
// dataset's id and the upload's seconds.
func ingest(srv *server, ds *dataset.Dataset, name string) (string, float64, error) {
	var buf bytes.Buffer
	if err := dataset.WriteLibSVM(&buf, ds); err != nil {
		return "", 0, err
	}
	start := time.Now()
	var info serve.StoredDataset
	err := srv.post(fmt.Sprintf("/v1/datasets?format=libsvm&task=binary&dim=%d&name=%s", ds.Dim, name),
		"text/plain", &buf, 201, &info)
	if err != nil {
		return "", 0, fmt.Errorf("ingest %s: %w", name, err)
	}
	return info.ID, time.Since(start).Seconds(), nil
}

// runServeJob submits one job by dataset_id, polls it to the end, and
// fetches the trained model's parameters.
func runServeJob(ctx context.Context, srv *server, d *storedDataset, spec modelio.SpecJSON, j jobSpec) *jobRecord {
	rec := &jobRecord{jobSpec: j, Probes: -1, GradsCalls: -1, Ledger: true}
	req := serve.TrainRequest{
		Model:   spec,
		Dataset: serve.DatasetRef{ID: d.id},
		Epsilon: j.Eps,
		Options: serve.TrainOptions{Seed: d.seed, InitialSampleSize: d.n0},
	}
	status, wall, err := srv.train(ctx, req, pollInterval)
	if err == nil && status.State != serve.JobSucceeded {
		err = fmt.Errorf("job %s ended %s: %s", status.ID, status.State, status.Error)
	}
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.WallMs = ms(wall)
	rec.ModelID = status.ModelID
	m, err := srv.model(status.ModelID)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Theta = m.Theta
	rec.SampleSize, rec.PoolSize, rec.EarlyExit = m.SampleSize, m.PoolSize, m.UsedInitialModel
	if d := status.Diagnostics; d != nil {
		rec.InitMs, rec.StatsMs, rec.SearchMs, rec.FinalMs = d.InitialTrainMs, d.StatisticsMs, d.SampleSearchMs, d.FinalTrainMs
		rec.InitIters, rec.FinalIters = d.InitialIters, d.FinalIters
	}
	if r := status.Resources; r != nil {
		rec.KernelCalls, rec.Flops, rec.Rows, rec.Bytes = r.KernelCalls, r.Flops, r.RowsMaterialized, r.BytesMaterialized
		rec.CPUMs, rec.KernelMs, rec.RegistryIOMs = r.CPUMs, r.KernelMs, r.RegistryIOMs
	}
	if t := status.Trace; t != nil {
		rec.Spans, rec.Dropped = len(t.Spans), t.DroppedSpans
	}
	rec.QueueWaitMs = ms(status.StartedAt.Sub(status.EnqueuedAt))
	rec.RunMs = ms(status.FinishedAt.Sub(status.StartedAt))
	return rec
}

// serveJobLayers fills the per-layer metrics a finished serve job reports
// about itself — queue and run times from its timestamps, its ledger, its
// spans.
func serveJobLayers(v map[string]float64, recs []*jobRecord) {
	var qwait, run, overhead []float64
	var rows, bytesN, regMs, cpuMs, kernels, flops, kernelMs, spansN, dropped float64
	for _, r := range recs {
		if r.Err != "" {
			continue
		}
		qwait = append(qwait, r.QueueWaitMs)
		run = append(run, r.RunMs)
		overhead = append(overhead, r.WallMs-r.RunMs)
		rows += float64(r.Rows)
		bytesN += float64(r.Bytes)
		regMs += r.RegistryIOMs
		cpuMs += r.CPUMs
		kernels += float64(r.KernelCalls)
		flops += float64(r.Flops)
		kernelMs += r.KernelMs
		spansN += float64(r.Spans)
		dropped += float64(r.Dropped)
	}
	n := math.Max(float64(len(qwait)), 1)
	v["serve.queue_wait_ms_p50"] = median(qwait)
	v["serve.run_ms_p50"] = median(run)
	v["serve.client_overhead_ms_p50"] = median(overhead)
	v["serve.registry_io_ms"] = regMs / n
	v["store.rows_materialized"] = rows / n
	v["store.bytes_materialized"] = bytesN / n
	v["linalg.kernel_calls"] = kernels / n
	v["linalg.flops"] = flops / n
	v["linalg.kernel_ms"] = kernelMs / n
	v["compute.cpu_ms"] = cpuMs / n
	v["obs.spans_per_job"] = spansN / n
	v["obs.dropped_spans"] = dropped
}

// serverCounters is one scrape of the server-side counters a workload
// differences around the jobs it runs.
type serverCounters struct {
	parallelCalls, helpers, parallelism float64
	allocBytes, gcCycles                float64
	materializeMs                       float64
}

func scrapeServer(srv *server) (serverCounters, error) {
	var c serverCounters
	all, err := srv.expvars()
	if err != nil {
		return c, err
	}
	text, err := srv.metricsText()
	if err != nil {
		return c, err
	}
	c.parallelCalls = expvarField(all, "blinkml_compute", "parallel_calls")
	c.helpers = expvarField(all, "blinkml_compute", "helpers_spawned")
	c.parallelism = math.Max(expvarField(all, "blinkml_compute", "parallelism"), 1)
	c.allocBytes = expvarField(all, "memstats", "TotalAlloc")
	c.gcCycles = expvarField(all, "memstats", "NumGC")
	c.materializeMs = promSample(text, "blinkml_sample_materialize_ms_sum")
	return c, nil
}

// minus returns what the counters gained since before; parallelism is a
// setting, not a counter, and is kept.
func (c serverCounters) minus(before serverCounters) serverCounters {
	return serverCounters{
		parallelCalls: c.parallelCalls - before.parallelCalls,
		helpers:       c.helpers - before.helpers,
		parallelism:   c.parallelism,
		allocBytes:    c.allocBytes - before.allocBytes,
		gcCycles:      c.gcCycles - before.gcCycles,
		materializeMs: c.materializeMs - before.materializeMs,
	}
}

// serverJobLayers fills the per-layer metrics that come from the server's
// counters, given each job's counter gains: per-job store materialization
// time, compute pool calls and helpers, allocation and GC cycles, and the
// pool's busy share of the jobs' run time.
func serverJobLayers(v map[string]float64, gains []serverCounters, recs []*jobRecord) {
	var sum serverCounters
	var runMs, cpuMs float64
	for _, g := range gains {
		sum.parallelCalls += g.parallelCalls
		sum.helpers += g.helpers
		sum.parallelism = g.parallelism
		sum.allocBytes += g.allocBytes
		sum.gcCycles += g.gcCycles
		sum.materializeMs += g.materializeMs
	}
	for _, r := range recs {
		runMs += r.RunMs
		cpuMs += r.CPUMs
	}
	n := math.Max(float64(len(gains)), 1)
	v["store.materialize_ms"] = sum.materializeMs / n
	v["compute.parallel_calls"] = sum.parallelCalls / n
	v["compute.helpers_spawned"] = sum.helpers / n
	v["go.alloc_mb_per_job"] = sum.allocBytes / (1 << 20) / n
	v["go.gc_cycles_per_job"] = sum.gcCycles / n
	if runMs > 0 {
		v["compute.busy_frac"] = cpuMs / (runMs * math.Max(sum.parallelism, 1))
	}
}
