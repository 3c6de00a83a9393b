package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	"blinkml/internal/core"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
)

// jobSpec is one entry of a training workload's fixed job sequence.
type jobSpec struct {
	Data string // dataset key
	Eps  float64
}

func (j jobSpec) key() string { return fmt.Sprintf("%s@%g", j.Data, j.Eps) }

// jobRecord is everything the benchmark learned about one training job.
type jobRecord struct {
	jobSpec
	Traced bool
	WallMs float64 // request → guaranteed model, as the client saw it
	Err    string

	ModelID    string // registry id (serve jobs)
	Theta      []float64
	SampleSize int
	PoolSize   int
	EarlyExit  bool

	InitMs, StatsMs, SearchMs, FinalMs float64
	InitIters, FinalIters              int
	Probes, GradsCalls                 int // -1 where the surface does not expose them

	// Ledger fields (traced library jobs, every serve job).
	KernelCalls, Flops, Rows, Bytes int64
	CPUMs, KernelMs, RegistryIOMs   float64
	Ledger                          bool

	// Serve-side timings.
	QueueWaitMs, RunMs float64
	Spans, Dropped     int

	// Bench-side materialization counters (library jobs).
	DataRows int64
	DataMs   float64

	Realized float64 // v(m_n, m_N) on the withheld rows
}

// fingerprint is the deterministic part of a job: at a fixed seed and
// compute degree every repeat of the same job must reproduce it exactly,
// traced or not.
func (r *jobRecord) fingerprint() string {
	return fmt.Sprintf("n=%d N=%d early=%v iters=%d/%d probes=%d grads=%d theta=%x rows=%d",
		r.SampleSize, r.PoolSize, r.EarlyExit, r.InitIters, r.FinalIters, r.Probes, r.GradsCalls,
		core.ThetaFingerprint(r.Theta), r.DataRows)
}

// ledgerFingerprint is the deterministic part of the job's ledger.
func (r *jobRecord) ledgerFingerprint() string {
	return fmt.Sprintf("kernels=%d flops=%d store_rows=%d store_bytes=%d", r.KernelCalls, r.Flops, r.Rows, r.Bytes)
}

// checkFingerprints fails the run when two repeats of the same job (same
// dataset and ε) disagree on any deterministic counter, and returns a
// digest of all fingerprints for the record.
func checkFingerprints(out *outcome, recs []*jobRecord) string {
	seen := make(map[string]string)
	check := func(k, fp string) {
		if prev, ok := seen[k]; !ok {
			seen[k] = fp
		} else if prev != fp {
			out.problem("fingerprint mismatch for %s: %s vs %s", k, prev, fp)
		}
	}
	for _, r := range recs {
		if r.Err != "" {
			continue
		}
		check(r.key(), r.fingerprint())
		if r.Ledger {
			check(r.key()+" ledger", r.ledgerFingerprint())
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s|%s\n", k, seen[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// reference is the full-data model a dataset's jobs are checked against,
// with the rows withheld from the program.
type reference struct {
	Spec     models.Spec
	Theta    []float64
	Withheld *dataset.Dataset
}

// checkGuarantee computes the job's realized disagreement with the
// reference model on the withheld rows and reports whether it exceeds the
// requested ε.
func (ref *reference) checkGuarantee(r *jobRecord) (miss bool) {
	r.Realized = models.Diff(ref.Spec, r.Theta, ref.Theta, ref.Withheld)
	return r.Realized > r.Eps
}

// trainingSummary fills the end-to-end job metrics from the untraced jobs'
// records and records the guarantee outcomes.
func trainingSummary(out *outcome, recs []*jobRecord, phaseWallS float64) {
	var wall []float64
	var misses, ok int
	byJob := make(map[string][]float64)
	for _, r := range recs {
		if r.Err != "" {
			continue
		}
		ok++
		wall = append(wall, r.WallMs)
		byJob[r.key()] = append(byJob[r.key()], r.WallMs)
		if r.Realized > r.Eps {
			misses++
		}
	}
	tail, pct := tailRule(wall)
	v := out.values
	v["latency_ms_p50"] = median(wall)
	v["latency_ms_tail"] = tail
	v["throughput_per_s"] = float64(ok) / phaseWallS
	v["guarantee_miss_frac"] = frac(misses, ok)
	coreLayers(v, recs)
	medians := make(map[string]float64, len(byJob))
	for k, w := range byJob {
		medians[k] = median(w)
	}
	out.detail["jobs"] = len(recs)
	out.detail["tail_percentile"] = pct
	out.detail["tail_n"] = len(wall)
	out.detail["guarantee_misses"] = misses
	out.detail["wall_ms_by_job"] = medians
}

// coreLayers fills the core and optimize metrics from successful jobs'
// diagnostics: phase medians, sampling outcomes and iteration sums.
func coreLayers(v map[string]float64, recs []*jobRecord) {
	var initMs, statsMs, searchMs, finalMs, sampleFrac []float64
	var early, ok int
	var probes, grads, initIters, finalIters float64
	exposed := true // probes and grads calls (-1 where the surface hides them)
	for _, r := range recs {
		if r.Err != "" {
			continue
		}
		ok++
		initMs = append(initMs, r.InitMs)
		statsMs = append(statsMs, r.StatsMs)
		searchMs = append(searchMs, r.SearchMs)
		finalMs = append(finalMs, r.FinalMs)
		sampleFrac = append(sampleFrac, float64(r.SampleSize)/float64(r.PoolSize))
		if r.EarlyExit {
			early++
		}
		probes += float64(r.Probes)
		grads += float64(r.GradsCalls)
		exposed = exposed && r.Probes >= 0
		initIters += float64(r.InitIters)
		finalIters += float64(r.FinalIters)
	}
	v["core.initial_train_ms_p50"] = median(initMs)
	v["core.statistics_ms_p50"] = median(statsMs)
	v["core.search_ms_p50"] = median(searchMs)
	v["core.final_train_ms_p50"] = median(finalMs)
	v["core.sample_frac"] = mean(sampleFrac)
	v["core.early_exit_frac"] = frac(early, ok)
	if exposed {
		v["core.probes_per_job"] = probes / float64(max(ok, 1))
		v["core.grads_calls"] = grads / float64(max(ok, 1))
	}
	v["optimize.initial_iters"] = initIters
	v["optimize.final_iters"] = finalIters
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
