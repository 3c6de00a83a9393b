package main

import (
	"context"
	"expvar"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"blinkml/internal/compute"
	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/obs"
)

// train-dense sizing. Set-up repetition r prepares draw r mod denseDraws
// of both datasets, so a run averages over several draws and the repeated
// draw proves the reference fits deterministic. The job cycle covers every
// draw; a run measures a whole number of cycles fixed by --seconds, so the
// job count (and with it the tail percentile) is the same from run to run.
const (
	denseCriteoRows = 40000
	denseCriteoDim  = 300
	denseMNISTRows  = 30000
	denseMNISTDim   = 64
	withheldRows    = 2000
	denseN0         = 1000
	denseDraws      = 2
	denseCycleS     = 14.0 // nominal seconds per cycle, sizes the job count
	setupReps       = 3
)

var epsLadder = []float64{0.10, 0.05, 0.03}

// mnistEps are the MNIST jobs' requests: loose enough that the n₀ model
// meets them, so these jobs are the early-exit case whose time is mostly
// statistics (tighter requests turn some draws into sample-size searches,
// which the Criteo ladder already covers). They are the majority of the
// cycle, so the median job is always one of them whichever side of them
// the slowest Criteo jobs fall.
var mnistEps = []float64{0.20, 0.15, 0.12, 0.10}

// denseData is one prepared train-dense dataset: what the program sees,
// and the reference model its jobs are checked against.
type denseData struct {
	src  *dataset.Dataset
	spec models.Spec
	opt  core.Options // the jobs' shared split seed and n₀
	ref  *reference
}

// timedSource wraps the in-memory dataset the program trains on, counting
// and timing the rows the coordinator materializes from it. Every call is
// a bench span under the job's core span.
type timedSource struct {
	dataset.Source
	spans  *spanTree
	parent atomic.Int64
	rows   atomic.Int64
	nanos  atomic.Int64
}

func (s *timedSource) Materialize(idx []int) (*dataset.Dataset, error) {
	_, end := s.spans.start(int(s.parent.Load()), "dataset.materialize")
	start := time.Now()
	ds, err := s.Source.Materialize(idx)
	s.nanos.Add(int64(time.Since(start)))
	s.rows.Add(int64(len(idx)))
	end()
	return ds, err
}

// splitWithheld cuts the last withheldRows rows off ds: the program never
// sees them, the guarantee check evaluates on them.
func splitWithheld(ds *dataset.Dataset) (program, withheld *dataset.Dataset) {
	n := ds.Len() - withheldRows
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	return ds.Subset(idx[:n]), ds.Subset(idx[n:])
}

// fitReference trains the full-data model on the pool the jobs' shared
// split seed yields.
func fitReference(spec models.Spec, program, withheld *dataset.Dataset, opt core.Options) (*reference, error) {
	env := core.NewEnv(program, opt)
	full, err := env.TrainFull(spec, opt.Optimizer)
	if err != nil {
		return nil, err
	}
	return &reference{Spec: spec, Theta: full.Theta, Withheld: withheld}, nil
}

// setupTrainDense generates draw of both datasets and fits their reference
// models, storing them in data under "<name>#<draw>" keys. Each draw has
// its own split seed too, so the draws' estimator randomness is
// independent as well. A draw prepared again must reproduce its reference
// models bit for bit.
func setupTrainDense(out *outcome, data map[string]*denseData, seed int64, draw int) error {
	dataSeed := seed*1000 + int64(draw)*10
	opt := core.Options{Seed: dataSeed, InitialSampleSize: denseN0}
	gens := []struct {
		name string
		spec models.Spec
		gen  func() *dataset.Dataset
	}{
		{"criteo", models.LogisticRegression{Reg: 0.001}, func() *dataset.Dataset {
			return datagen.Criteo(datagen.Config{Rows: denseCriteoRows + withheldRows, Dim: denseCriteoDim, Seed: dataSeed + 1})
		}},
		{"mnist", models.MaxEntropy{Classes: 10, Reg: 0.001}, func() *dataset.Dataset {
			return datagen.MNIST(datagen.Config{Rows: denseMNISTRows + withheldRows, Dim: denseMNISTDim, Seed: dataSeed + 2})
		}},
	}
	for _, g := range gens {
		program, withheld := splitWithheld(g.gen())
		ref, err := fitReference(g.spec, program, withheld, opt)
		if err != nil {
			return fmt.Errorf("reference fit %s: %w", g.name, err)
		}
		key := fmt.Sprintf("%s#%d", g.name, draw)
		if prev, ok := data[key]; ok && !sameModels([]*reference{prev.ref}, []*reference{ref}) {
			out.problem("reference model for %s differs between set-ups", key)
		}
		data[key] = &denseData{src: program, spec: g.spec, opt: opt, ref: ref}
	}
	return nil
}

// repeatSetup runs setup setupReps times and returns the last result with
// the median set-up seconds. Results of earlier repetitions go to discard
// (nil keeps them).
func repeatSetup[T any](out *outcome, setup func(rep int) (T, error), discard func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		releaseMemory()
		start := time.Now()
		v, err := setup(i)
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < setupReps-1 && discard != nil {
			discard(v)
		}
		last = v
	}
	out.detail["setup_s_reps"] = secs
	return last, median(secs), nil
}

// sameModels reports whether two sets of reference models are bit-identical.
func sameModels(a, b []*reference) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if core.ThetaFingerprint(a[i].Theta) != core.ThetaFingerprint(b[i].Theta) {
			return false
		}
	}
	return true
}

func runTrainDense(cfg config) (*outcome, error) {
	out := newOutcome()
	data := make(map[string]*denseData)
	_, setupS, err := repeatSetup(out, func(rep int) (map[string]*denseData, error) {
		return data, setupTrainDense(out, data, cfg.seed, rep%denseDraws)
	}, nil)
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = setupS

	var cycle []jobSpec
	for draw := 0; draw < denseDraws; draw++ {
		for _, eps := range epsLadder {
			cycle = append(cycle, jobSpec{fmt.Sprintf("criteo#%d", draw), eps})
		}
		for _, eps := range mnistEps {
			cycle = append(cycle, jobSpec{fmt.Sprintf("mnist#%d", draw), eps})
		}
	}
	// The traced pass runs every job twice (bare and production), so it
	// runs half the cycles to keep the run length.
	perCycle := denseCycleS
	if cfg.trace {
		perCycle *= 2
	}
	cycles := max(1, int(math.Round(cfg.seconds/perCycle)))

	spans := &spanTree{}
	parallelCalls, helpers := computeCounters()
	var bare, traced []*jobRecord
	var allocBytes, gcCycles uint64
	phaseStart := time.Now()
	for c := 0; c < cycles; c++ {
		for i, j := range cycle {
			modes := []bool{false}
			if cfg.trace {
				// Alternate which mode goes first so neither pays for the
				// other's cache warm-up.
				modes = []bool{(c+i)%2 == 1, (c+i)%2 == 0}
			}
			for _, tr := range modes {
				a0, g0 := allocCounters()
				rec := runLibraryJob(data[j.Data], j, tr, spans)
				a1, g1 := allocCounters()
				out.op(rec.Err != "")
				if rec.Err == "" {
					data[j.Data].ref.checkGuarantee(rec)
				}
				if tr {
					traced = append(traced, rec)
				} else {
					bare = append(bare, rec)
					allocBytes += a1 - a0
					gcCycles += g1 - g0
				}
			}
		}
	}
	phaseS := time.Since(phaseStart).Seconds()
	parallelCalls1, helpers1 := computeCounters()
	peakMB := selfPeakRSSMB()

	for _, r := range append(bare, traced...) {
		if r.Err != "" {
			out.problem("job %s failed: %s", r.key(), r.Err)
		}
	}
	out.detail["fingerprint"] = checkFingerprints(out, append(bare, traced...))
	out.detail["cycles"] = cycles
	out.detail["realized"] = realizedByJob(bare)

	// With --trace 1 the bare jobs ran interleaved with traced ones, so the
	// end-to-end numbers below describe the bare half.
	trainingSummary(out, bare, phaseS)
	v := out.values
	if cfg.trace {
		// Throughput over the bare jobs' own time, not the doubled phase.
		var bareS float64
		for _, r := range bare {
			bareS += r.WallMs / 1000
		}
		v["throughput_per_s"] = float64(len(bare)) / bareS
	}
	v["peak_rss_mb"] = peakMB
	n := float64(len(bare))
	var rows, dataMs float64
	for _, r := range bare {
		rows += float64(r.DataRows)
		dataMs += r.DataMs
	}
	v["dataset.rows_materialized"] = rows / n
	v["dataset.materialize_ms"] = dataMs / n
	jobs := float64(len(bare) + len(traced))
	v["compute.parallel_calls"] = float64(parallelCalls1-parallelCalls) / jobs
	v["compute.helpers_spawned"] = float64(helpers1-helpers) / jobs
	v["core.self_ms_per_job"] = spans.selfTime()["core.train"] / jobs
	v["go.alloc_mb_per_job"] = float64(allocBytes) / (1 << 20) / n
	v["go.gc_cycles_per_job"] = float64(gcCycles) / n

	var kernels, flops, kernelMs, cpuMs, tracedWall, spansN, dropped float64
	var tracedWalls []float64
	for _, r := range traced {
		kernels += float64(r.KernelCalls)
		flops += float64(r.Flops)
		kernelMs += r.KernelMs
		cpuMs += r.CPUMs
		tracedWall += r.WallMs
		tracedWalls = append(tracedWalls, r.WallMs)
		spansN += float64(r.Spans)
		dropped += float64(r.Dropped)
	}
	nt := math.Max(float64(len(traced)), 1)
	v["linalg.kernel_calls"] = kernels / nt
	v["linalg.flops"] = flops / nt
	v["linalg.kernel_ms"] = kernelMs / nt
	v["compute.cpu_ms"] = cpuMs / nt
	if tracedWall > 0 {
		v["compute.busy_frac"] = cpuMs / (tracedWall * float64(compute.Parallelism()))
	}
	v["obs.spans_per_job"] = spansN / nt
	v["obs.dropped_spans"] = dropped
	if len(traced) > 0 {
		v["obs.trace_overhead_frac"] = median(tracedWalls)/v["latency_ms_p50"] - 1
	}
	notMeasured(out,
		"store.rows_materialized", "store.bytes_materialized", "store.materialize_ms", "store.ingest_s",
		"serve.queue_wait_ms_p50", "serve.run_ms_p50", "serve.client_overhead_ms_p50", "serve.registry_io_ms",
		"serve.route_predict_ms_p50", "serve.route_predict_ms_p99", "serve.client_server_gap_ms_p99",
		"serve.capacity_qps", "predict_lo_ms_p99", "predict_hi_ms_p50", "predict_hi_ms_p99",
		"loadgen.lag_ms_p99", "loadgen.achieved_frac", "loadgen.client_cpu_frac", "loadgen.generator_limited",
		"go.server_cpu_s")
	return out, nil
}

// runLibraryJob trains one job through core.TrainSourceContext. Traced
// jobs run in the production configuration: a ledger and a span recorder
// in the context, the ledger bound to the calling goroutine, exactly as
// blinkml-serve binds them per job.
func runLibraryJob(d *denseData, j jobSpec, traced bool, spans *spanTree) *jobRecord {
	rec := &jobRecord{jobSpec: j, Traced: traced}
	src := &timedSource{Source: d.src, spans: spans}
	opt := d.opt
	opt.Epsilon = j.Eps
	ctx := context.Background()
	var ledger *obs.Ledger
	var recorder *obs.Recorder
	jobID, endJob := spans.start(0, "job")
	coreID, endCore := spans.start(jobID, "core.train")
	src.parent.Store(int64(coreID))
	start := time.Now()
	var res *core.Result
	var err error
	if traced {
		ledger = obs.NewLedger()
		recorder = obs.NewRecorder(obs.NewTraceID())
		tctx := obs.WithLedger(obs.WithRecorder(obs.WithTrace(ctx, recorder.Trace()), recorder), ledger)
		unbind := obs.BindLedger(ledger)
		res, err = core.TrainSourceContext(tctx, d.spec, src, opt)
		unbind()
	} else {
		res, err = core.TrainSourceContext(ctx, d.spec, src, opt)
	}
	rec.WallMs = float64(time.Since(start)) / float64(time.Millisecond)
	endCore()
	endJob()
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	diag := res.Diag
	rec.Theta = res.Theta
	rec.SampleSize, rec.PoolSize, rec.EarlyExit = res.SampleSize, res.PoolSize, res.UsedInitialModel
	rec.InitMs, rec.StatsMs = ms(diag.InitialTrain), ms(diag.Statistics)
	rec.SearchMs, rec.FinalMs = ms(diag.SampleSearch), ms(diag.FinalTrain)
	rec.InitIters, rec.FinalIters = diag.InitialIters, diag.FinalIters
	rec.Probes, rec.GradsCalls = len(diag.Probes), diag.GradsCalls
	rec.DataRows, rec.DataMs = src.rows.Load(), float64(src.nanos.Load())/float64(time.Millisecond)
	if traced {
		snap := ledger.Snapshot()
		rec.Ledger = true
		rec.KernelCalls, rec.Flops, rec.Rows, rec.Bytes = snap.KernelCalls, snap.Flops, snap.RowsMaterialized, snap.BytesMaterialized
		rec.CPUMs, rec.KernelMs = snap.CPUMs, snap.KernelMs
		rec.Spans, rec.Dropped = len(recorder.Spans()), recorder.Dropped()
	}
	return rec
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// computeCounters reads the compute pool's expvar counters.
func computeCounters() (parallelCalls, helpersSpawned int64) {
	m, ok := expvar.Get("blinkml_compute").(*expvar.Map)
	if !ok {
		return 0, 0
	}
	get := func(name string) int64 {
		if v, ok := m.Get(name).(*expvar.Int); ok {
			return v.Value()
		}
		return 0
	}
	return get("parallel_calls"), get("helpers_spawned")
}

// realizedByJob records each distinct job's realized disagreement.
func realizedByJob(recs []*jobRecord) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range recs {
		if r.Err == "" {
			out[r.key()] = r.Realized
		}
	}
	return out
}

// notMeasured reports 0 for per-layer metrics a workload cannot measure —
// layers it never exercises, or counters its surface does not expose — and
// names them in the detail line, so a 0 there is not read as measured.
// Any other metric a workload leaves unset fails the run (buildResult).
func notMeasured(out *outcome, names ...string) {
	for _, n := range names {
		out.values[n] = 0
	}
	out.detail["not_measured"] = names
}
