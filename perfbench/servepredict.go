package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/loadgen"
	"blinkml/internal/modelio"
	"blinkml/internal/models"
	"blinkml/internal/obs"
	"blinkml/internal/serve"
)

// serve-predict sizing. The model is a d=300 Criteo-like logistic model
// registered by one training job over a stored LibSVM upload; requests
// carry rows withheld from that upload.
const (
	predictTrainRows = 20000
	predictDim       = 300
	predictN0        = 1000
	predictBodies    = 64 // distinct request bodies per batch size
	bigBatch         = 32
	bigEvery         = 4 // every 4th request is a batch-32 request
	kneeStepS        = 1.0
	kneeGrowth       = 1.08
	kneeStartFrac    = 0.75 // each knee search starts at this share of capacity
	kneeSearches     = 3    // independent knee searches; the median is reported
	predictRoute     = "/v1/models/{id}/predict"
	connections      = 2 // generator connections, at most nproc
	predictWindow    = 1250 * time.Millisecond
	capacityWindow   = 500 * time.Millisecond
)

// Shares of --seconds each measured phase takes: one capacity probe, one
// low-rate step, and kneeSearches rounds of a high-rate segment followed by
// a knee search, so the phases a stall of the machine can spoil are spread
// over the whole run.
const (
	capacityShare = 0.08
	loShare       = 0.16
	hiShare       = 0.08 // per segment
	kneeShare     = 0.16 // per search
)

type predictBody struct {
	body []byte
	want []float64 // Spec.Predict on the fetched θ
}

type predictSetup struct {
	srv     *server
	url     string // the registered model's predict endpoint
	small   []predictBody
	big     []predictBody
	job     *jobRecord     // the registration job
	gains   serverCounters // server counters gained during that job
	ref     *reference     // full-data fit the job is checked against
	ingestS float64
}

// setupServePredict starts a server and registers the model the way a
// user would: a LibSVM upload into the store and one /v1/train job by
// dataset_id. It fits the reference full model on the uploaded rows,
// fetches the model's θ and prepares the request bodies from the withheld
// rows with their expected predictions.
func setupServePredict(cfg config) (*predictSetup, error) {
	srv, err := startServer(cfg.serveBin, cfg.workDir)
	if err != nil {
		return nil, err
	}
	ps := &predictSetup{srv: srv}
	spec := models.LogisticRegression{Reg: 0.001}
	sj, err := modelio.SpecToJSON(spec)
	if err != nil {
		srv.stop()
		return nil, err
	}
	seed := cfg.seed*1000 + 20
	need := predictBodies * (1 + bigBatch)
	all := datagen.Criteo(datagen.Config{Rows: predictTrainRows + need, Dim: predictDim, Seed: seed})
	idx := make([]int, all.Len())
	for i := range idx {
		idx[i] = i
	}
	program, withheld := all.Subset(idx[:predictTrainRows]), all.Subset(idx[predictTrainRows:])
	fail := func(err error) (*predictSetup, error) {
		srv.stop()
		return nil, err
	}
	id, secs, err := ingest(srv, program, "criteo-predict")
	if err != nil {
		return fail(err)
	}
	ps.ingestS = secs
	if ps.ref, err = fitReference(spec, program, withheld, core.Options{Seed: seed, InitialSampleSize: predictN0}); err != nil {
		return fail(err)
	}
	before, err := scrapeServer(srv)
	if err != nil {
		return fail(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), jobsDeadline)
	defer cancel()
	ps.job = runServeJob(ctx, srv, &storedDataset{id: id, seed: seed, n0: predictN0}, sj, jobSpec{"criteo-predict", 0.05})
	if ps.job.Err != "" {
		return fail(fmt.Errorf("registration job: %s", ps.job.Err))
	}
	after, err := scrapeServer(srv)
	if err != nil {
		return fail(err)
	}
	ps.gains = after.minus(before)
	rows := make([][]float64, 0, need)
	for _, r := range withheld.X {
		dense := make([]float64, predictDim)
		r.AddTo(dense, 1)
		rows = append(rows, dense)
	}
	mk := func(batch [][]float64) predictBody {
		b, _ := json.Marshal(serve.PredictRequest{Rows: batch})
		want := make([]float64, len(batch))
		for i, row := range batch {
			want[i] = spec.Predict(ps.job.Theta, dataset.DenseRow(row))
		}
		return predictBody{body: b, want: want}
	}
	for i := 0; i < predictBodies; i++ {
		ps.small = append(ps.small, mk(rows[i:i+1]))
		lo := predictBodies + i*bigBatch
		ps.big = append(ps.big, mk(rows[lo:lo+bigBatch]))
	}
	ps.url = srv.base + "/v1/models/" + ps.job.ModelID + "/predict"
	return ps, nil
}

// predictTarget is the bench-side loadgen.Target: it sends the fixed
// request mix, checks every response against the expected predictions,
// and records each request's latency from its due time and its send lag.
type predictTarget struct {
	ps      *predictSetup
	client  *http.Client
	url     string
	start   time.Time
	offsets []time.Duration
	latMs   []float64 // per schedule index, from the due time
	lagMs   []float64 // per schedule index, send time − due time
	errors  atomic.Int64
	errMsg  atomic.Value
}

func (t *predictTarget) Do(ctx context.Context) (int, error) {
	tid := obs.TraceID(ctx)
	i, err := strconv.Atoi(tid[strings.LastIndexByte(tid, '-')+1:])
	if err != nil || i >= len(t.offsets) {
		return 0, fmt.Errorf("unexpected trace id %q", tid)
	}
	due := t.start.Add(t.offsets[i])
	t.lagMs[i] = ms(time.Since(due))
	status, err := t.send(ctx, t.ps.body(i))
	t.latMs[i] = ms(time.Since(due))
	return status, err
}

// body returns the i-th request of the fixed mix: every bigEvery-th request
// carries a batch of bigBatch rows, the rest a single row.
func (ps *predictSetup) body(i int) predictBody {
	if i%bigEvery == bigEvery-1 {
		return ps.big[(i/bigEvery)%predictBodies]
	}
	return ps.small[i%predictBodies]
}

// send posts one request and checks the response; every failure is
// counted and the last one kept for the report.
func (t *predictTarget) send(ctx context.Context, b predictBody) (int, error) {
	status, err := t.post(ctx, b)
	if err != nil {
		t.errors.Add(1)
		t.errMsg.Store(err.Error())
	}
	return status, err
}

func (t *predictTarget) post(ctx context.Context, b predictBody) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url, bytes.NewReader(b.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("predict: status %d", resp.StatusCode)
	}
	var pr serve.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return resp.StatusCode, err
	}
	if len(pr.Predictions) != len(b.want) {
		return resp.StatusCode, fmt.Errorf("predict: %d predictions for %d rows", len(pr.Predictions), len(b.want))
	}
	for i, p := range pr.Predictions {
		if p != b.want[i] {
			return resp.StatusCode, fmt.Errorf("predict: row %d got %v, want %v", i, p, b.want[i])
		}
	}
	return resp.StatusCode, nil
}

// stepRecord is one measured open-loop step with its raw observations.
type stepRecord struct {
	stepStats
	P50Ms, LagP99Ms float64
	// WindowP50Ms, WindowP90Ms and WindowP99Ms are the client quantiles of
	// each predictWindow of the step, by due time.
	WindowP50Ms, WindowP90Ms, WindowP99Ms []float64
	ServerP50Ms, ServerP99Ms              float64
	ClientCPUFrac, ServerCPUS             float64
}

// runStep drives one open-loop step at qps for d and gathers the client-
// and server-side views of it.
func runStep(ps *predictSetup, client *http.Client, qps float64, d time.Duration, seed int64) (*stepRecord, *predictTarget, error) {
	offsets, err := loadgen.Schedule(qps, d, loadgen.Constant, seed)
	if err != nil {
		return nil, nil, err
	}
	t := &predictTarget{ps: ps, client: client, url: ps.url, offsets: offsets,
		latMs: make([]float64, len(offsets)), lagMs: make([]float64, len(offsets))}
	before, err := ps.srv.metricsText()
	if err != nil {
		return nil, nil, err
	}
	cpu0, srvCPU0 := selfCPU(), ps.srv.cpu()
	t.start = time.Now()
	res, err := loadgen.RunStep(context.Background(), t, loadgen.StepConfig{
		QPS: qps, Duration: d, Arrival: loadgen.Constant, Seed: seed, MaxInflight: connections,
	})
	if err != nil {
		return nil, nil, err
	}
	wall := time.Since(t.start)
	cpu1, srvCPU1 := selfCPU(), ps.srv.cpu()
	after, err := ps.srv.metricsText()
	if err != nil {
		return nil, nil, err
	}
	label := fmt.Sprintf("route=%q,", predictRoute)
	_, c0 := promHistogram(before, "blinkml_http_request_ms", label)
	bounds, c1 := promHistogram(after, "blinkml_http_request_ms", label)
	if len(c0) == 0 {
		c0 = make([]float64, len(c1))
	}
	sumSeries := "blinkml_http_request_ms_sum{" + strings.TrimSuffix(label, ",") + "}"
	serverMs := promSample(after, sumSeries) - promSample(before, sumSeries)

	q := len(offsets) / 4
	r := &stepRecord{
		stepStats: stepStats{
			OfferedQPS:      qps,
			AchievedQPS:     res.AchievedQPS,
			Sent:            res.Sent,
			Errors:          res.Errors,
			P99Ms:           quantile(t.latMs, 0.99),
			LagEarlyMs:      median(t.lagMs[:max(q, 1)]),
			LagLateMs:       median(t.lagMs[len(offsets)-max(q, 1):]),
			ServerOccupancy: serverMs / (ms(wall) * float64(connections)),
		},
		P50Ms:         median(t.latMs),
		WindowP50Ms:   windowQuantiles(t.latMs, offsets, 0.50),
		WindowP90Ms:   windowQuantiles(t.latMs, offsets, 0.90),
		WindowP99Ms:   windowQuantiles(t.latMs, offsets, 0.99),
		LagP99Ms:      quantile(t.lagMs, 0.99),
		ServerP50Ms:   histDeltaQuantile(bounds, c0, c1, 0.50),
		ServerP99Ms:   histDeltaQuantile(bounds, c0, c1, 0.99),
		ClientCPUFrac: (cpu1 - cpu0).Seconds() / (wall.Seconds() * float64(runtime.NumCPU())),
		ServerCPUS:    (srvCPU1 - srvCPU0).Seconds(),
	}
	return r, t, nil
}

// windowQuantiles splits a step's latencies into predictWindow windows by
// due time and returns each window's q-quantile.
func windowQuantiles(latMs []float64, offsets []time.Duration, q float64) []float64 {
	var windows [][]float64
	for i, off := range offsets {
		w := int(off / predictWindow)
		for len(windows) <= w {
			windows = append(windows, nil)
		}
		windows[w] = append(windows[w], latMs[i])
	}
	var per []float64
	for _, w := range windows {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	return per
}

// capacityProbe sends the request mix back to back from the generator's
// connections, each a closed-loop client, for d. It returns the median
// completed requests per second over capacityWindow windows — the server's
// capacity at that concurrency, unmoved by a stall in one window.
func capacityProbe(ps *predictSetup, client *http.Client, d time.Duration) (qps float64, sent int, t *predictTarget) {
	t = &predictTarget{ps: ps, client: client, url: ps.url}
	counts := make([]atomic.Int64, max(int(d/capacityWindow), 1))
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(time.Duration(len(counts)) * capacityWindow)
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if _, err := t.send(context.Background(), ps.body(int(next.Add(1)-1))); err == nil {
					if w := int(time.Since(start) / capacityWindow); w < len(counts) {
						counts[w].Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	rates := make([]float64, len(counts))
	for i := range counts {
		rates[i] = float64(counts[i].Load()) / capacityWindow.Seconds()
	}
	return median(rates), int(next.Load()), t
}

func runServePredict(cfg config) (*outcome, error) {
	out := newOutcome()
	// Every set-up's registration job is a stored-data training job; their
	// records give this workload's store, queue and registry layers.
	var setups []*predictSetup
	ps, setupS, err := repeatSetup(out, func(int) (*predictSetup, error) {
		p, err := setupServePredict(cfg)
		if err == nil {
			setups = append(setups, p)
		}
		return p, err
	}, func(p *predictSetup) { p.srv.stop() })
	if err != nil {
		return nil, err
	}
	defer ps.srv.stop()
	out.values["setup_s"] = setupS

	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = connections
	tr.MaxConnsPerHost = connections
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	check := func(what string, sent int, t *predictTarget) {
		failed := int(t.errors.Load())
		out.attempted += sent
		out.failed += failed
		if msg, ok := t.errMsg.Load().(string); ok {
			out.problem("%s: %d of %d requests failed, e.g. %s", what, failed, sent, msg)
		}
	}
	var steps []*stepRecord
	step := func(qps, secs float64) *stepRecord {
		r, t, err := runStep(ps, client, qps, time.Duration(secs*float64(time.Second)), cfg.seed+int64(len(steps)))
		if err != nil {
			out.problem("step at %.0f QPS: %v", qps, err)
			return &stepRecord{}
		}
		check(fmt.Sprintf("step at %.0f QPS", qps), r.Sent, t)
		steps = append(steps, r)
		return r
	}

	// Warm the connections and the server's caches, unmeasured.
	warm, warmT, err := runStep(ps, client, cfg.loQPS, 500*time.Millisecond, cfg.seed-1)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	check("warm-up", warm.Sent, warmT)
	secs := func(share float64) float64 { return share * cfg.seconds }
	capQPS, capSent, capT := capacityProbe(ps, client, time.Duration(secs(capacityShare)*float64(time.Second)))
	check("capacity probe", capSent, capT)
	// The high rate runs in segments spread over the run, and the latency
	// figures are medians over windows; the knee is the median of
	// independent searches between them. A stall of the shared machine then
	// spoils one segment or one search, not the figure.
	kneeSteps := max(3, int(math.Round(secs(kneeShare)/kneeStepS)))
	var his []*stepRecord
	var lo *stepRecord
	var knees []kneeResult
	for k := 0; k < kneeSearches; k++ {
		his = append(his, step(cfg.hiQPS, secs(hiShare)))
		if k == 1 {
			lo = step(cfg.loQPS, secs(loShare))
		}
		knees = append(knees, searchKnee(func(qps float64) stepStats {
			return step(qps, kneeStepS).stepStats
		}, defaultKneeSLO, kneeStartFrac*capQPS, kneeGrowth, kneeSteps))
	}
	ps.srv.stop()

	hi := func(f func(*stepRecord) float64) float64 {
		var xs []float64
		for _, r := range his {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	var hiWindowP90, hiWindowP99 []float64
	var hiServerCPUS float64
	for _, r := range his {
		hiWindowP90 = append(hiWindowP90, r.WindowP90Ms...)
		hiWindowP99 = append(hiWindowP99, r.WindowP99Ms...)
		hiServerCPUS += r.ServerCPUS
	}
	v := out.values
	v["latency_ms_p50"] = median(lo.WindowP50Ms)
	// p90, not p99: on a shared 2-vCPU machine the p99 at the high rate
	// moved by 2x between runs of the same code (it is kept per layer).
	v["latency_ms_tail"] = median(hiWindowP90)
	v["predict_hi_ms_p99"] = median(hiWindowP99)
	var kneeQPS []float64
	var generatorLimited float64
	for _, k := range knees {
		kneeQPS = append(kneeQPS, k.MaxQPS)
		if k.GeneratorLimited {
			generatorLimited++
		}
	}
	v["throughput_per_s"] = median(kneeQPS)
	v["peak_rss_mb"] = ps.srv.peakRSSMB
	v["serve.capacity_qps"] = capQPS
	v["predict_lo_ms_p99"] = median(lo.WindowP99Ms)
	v["predict_hi_ms_p50"] = hi(func(r *stepRecord) float64 { return r.P50Ms })
	v["serve.route_predict_ms_p50"] = hi(func(r *stepRecord) float64 { return r.ServerP50Ms })
	v["serve.route_predict_ms_p99"] = hi(func(r *stepRecord) float64 { return r.ServerP99Ms })
	v["serve.client_server_gap_ms_p99"] = hi(func(r *stepRecord) float64 { return r.P99Ms - r.ServerP99Ms })
	v["loadgen.lag_ms_p99"] = hi(func(r *stepRecord) float64 { return r.LagP99Ms })
	v["loadgen.achieved_frac"] = hi(func(r *stepRecord) float64 { return r.AchievedQPS / r.OfferedQPS })
	v["loadgen.client_cpu_frac"] = hi(func(r *stepRecord) float64 { return r.ClientCPUFrac })
	v["loadgen.generator_limited"] = generatorLimited
	v["go.server_cpu_s"] = lo.ServerCPUS + hiServerCPUS
	// The registration jobs are this workload's training jobs: each is
	// checked against its set-up's reference fit, and every set-up must
	// reproduce the first one's reference bit for bit.
	var jobs []*jobRecord
	var gains []serverCounters
	var ingestS []float64
	var misses int
	for _, p := range setups {
		out.op(false)
		if !sameModels([]*reference{setups[0].ref}, []*reference{p.ref}) {
			out.problem("reference models differ between set-ups")
		}
		if p.ref.checkGuarantee(p.job) {
			misses++
		}
		jobs = append(jobs, p.job)
		gains = append(gains, p.gains)
		ingestS = append(ingestS, p.ingestS)
	}
	out.detail["fingerprint"] = checkFingerprints(out, jobs)
	out.detail["realized"] = realizedByJob(jobs)
	v["guarantee_miss_frac"] = frac(misses, len(jobs))
	serveJobLayers(v, jobs)
	serverJobLayers(v, gains, jobs)
	coreLayers(v, jobs)
	v["store.ingest_s"] = median(ingestS)
	notMeasured(out,
		"core.probes_per_job", "core.grads_calls", // not exposed by the serve API
		"core.self_ms_per_job", "obs.trace_overhead_frac", // library-path spans only
		"dataset.rows_materialized", "dataset.materialize_ms") // in-memory sources only
	out.detail["capacity_qps"] = capQPS
	var kneeDetail []map[string]any
	for _, k := range knees {
		kneeDetail = append(kneeDetail, map[string]any{
			"max_qps": k.MaxQPS, "max_offered": k.MaxOffered, "first_fail": k.FirstFail,
			"generator_limited": k.GeneratorLimited,
		})
	}
	out.detail["knees"] = kneeDetail
	out.detail["knee_slo"] = defaultKneeSLO
	out.detail["steps"] = steps
	return out, nil
}
