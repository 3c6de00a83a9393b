package serve

import (
	"context"
	"errors"
	"time"

	"blinkml/internal/cluster"
	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
	"blinkml/internal/obs"
	"blinkml/internal/optimize"
	"blinkml/internal/tune"
)

// dispatcher returns where one job's tasks run. Every unit of job work — a
// train job, each tune trial, each audit replay — is a cluster.TaskSpec
// handed to it, while the queue stays the single admission and
// cancellation point. In cluster mode that is the embedded coordinator's
// worker fleet; otherwise it is a fresh in-process executor — the code a
// worker runs — that memoizes the job's one environment and drops it when
// the job ends.
func (s *Server) dispatcher() cluster.Dispatcher {
	if s.coord != nil {
		return s.coord
	}
	return cluster.NewExecutor(s.openDataset)
}

// openDataset is the in-process executor's cluster.Resolver: stored ids
// open this server's own store.
func (s *Server) openDataset(_ context.Context, ref cluster.DatasetRef) (dataset.Source, error) {
	h, err := s.store.Get(ref.ID)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// tuneConfig maps a tune request to a search config. The queue's worker
// pool is the service's concurrency budget; a tune job's internal training
// pool must not multiply it, so the per-request worker count is clamped to
// the server's own worker setting. Cluster trials run on remote machines,
// though: there the right bound is the fleet's capacity (what can actually
// execute at once), not this process's queue width. An explicit request
// still wins; a little headroom keeps the queue fed as workers join
// mid-search.
func (s *Server) tuneConfig(req TuneRequest) tune.Config {
	tf := req.Options.TestFraction
	if tf == 0 {
		tf = 0.15
	}
	workers := req.Options.Workers
	if s.coord == nil {
		if workers <= 0 || workers > s.cfg.Workers {
			workers = s.cfg.Workers
		}
	} else if workers <= 0 {
		workers = s.cfg.Workers
		if fleet := s.coord.TotalCapacity(); fleet > workers {
			workers = fleet + 2
		}
	}
	return tune.Config{
		Train: core.Options{
			Epsilon:           req.Epsilon,
			Delta:             req.Delta,
			Seed:              req.Options.Seed,
			InitialSampleSize: req.Options.InitialSampleSize,
			TestFraction:      tf,
			Optimizer:         optimize.Options{MaxIters: req.Options.MaxIters},
		},
		Workers: workers,
		Halving: req.Options.Halving,
		Rungs:   req.Options.Rungs,
		Eta:     req.Options.Eta,
		Seed:    req.Options.Seed,
	}
}

// observeJobLedger distributes a finishing job's ledger totals into the
// per-family cost histograms (blinkml_job_cpu_ms / blinkml_job_alloc_bytes).
// family comes from the model spec, so the label set stays bounded.
func (s *Server) observeJobLedger(ctx context.Context, family string) {
	l := obs.LedgerFrom(ctx)
	if l == nil {
		return
	}
	snap := l.Snapshot()
	s.m.JobCPUFamily.With(family).Observe(snap.CPUMs)
	s.m.JobAllocFamily.With(family).Observe(float64(snap.BytesMaterialized))
}

// runTrain is a train job's work: one train task, whose model is then
// registered here.
func (s *Server) runTrain(ctx context.Context, req TrainRequest) (TaskResult, error) {
	ref, _, err := s.clusterDatasetRef(req.Dataset)
	if err != nil {
		return TaskResult{}, err
	}
	opts := req.coreOptions().Wire()
	start := time.Now()
	payload, err := s.dispatcher().Dispatch(ctx, cluster.TaskSpec{Kind: cluster.KindTrain, Train: &cluster.TrainTask{
		Spec:    req.Model,
		Dataset: ref,
		Options: opts,
	}})
	if err != nil {
		return TaskResult{}, err
	}
	m, err := cluster.DecodeModel(payload.Model)
	if err != nil {
		return TaskResult{}, err
	}
	elapsed := float64(time.Since(start)) / float64(time.Millisecond)
	s.m.TrainRuns.Add(1)
	s.m.TrainLatency.Observe(elapsed)
	s.m.TrainLatencyFamily.With(m.Spec.Name()).Observe(elapsed)
	s.m.SampleSizeSum.Add(int64(m.SampleSize))
	s.m.SampleSizeLast.Set(int64(m.SampleSize))
	// The executor shipped the model through modelio; its decoded spec
	// carries the trained derived state (PPCA's σ²), so registering it
	// re-encodes the executor's exact bytes.
	id, err := s.registerModel(ctx, "train", m, req.Dataset, opts)
	if err != nil {
		return TaskResult{}, err
	}
	s.observeJobLedger(ctx, m.Spec.Name())
	return TaskResult{ModelID: id, Diagnostics: NewPhaseBreakdown(m.Diag)}, nil
}

// runTune is a tune job's work: the leaderboard logic runs here, and every
// trial (each halving rung, each contract training) is its own task, so
// with a coordinator one search spreads across the fleet.
func (s *Server) runTune(ctx context.Context, req TuneRequest) (TaskResult, error) {
	space, err := req.Space.Space()
	if err != nil {
		return TaskResult{}, err
	}
	ref, shape, err := s.clusterDatasetRef(req.Dataset)
	if err != nil {
		return TaskResult{}, err
	}
	cfg := s.tuneConfig(req)
	opts := cfg.Train.Wire()
	runner := cluster.NewTrialRunner(s.dispatcher(), ref, opts, core.PoolSize(shape.rows, cfg.Train))
	start := time.Now()
	res, err := tune.SearchRunner(ctx, space, runner, cfg)
	if err != nil {
		return TaskResult{}, err
	}
	s.m.TuneRuns.Add(1)
	s.m.TuneLatency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	s.m.TuneCandidates.Add(int64(res.Evaluated))
	s.m.TuneCandidatesPruned.Add(int64(res.Pruned))
	best := res.Best
	id, err := s.registerModel(ctx, "tune", &modelio.Model{
		Spec:             best.Spec,
		Theta:            best.Theta,
		Dim:              shape.dim,
		SampleSize:       best.SampleSize,
		PoolSize:         best.PoolSize,
		EstimatedEpsilon: best.EstimatedEpsilon,
		UsedInitialModel: best.UsedInitialModel,
		Diag:             best.Diag,
	}, req.Dataset, opts)
	if err != nil {
		return TaskResult{}, err
	}
	rep, err := NewTuneReport(res)
	if err != nil {
		return TaskResult{}, err
	}
	s.observeJobLedger(ctx, best.Spec.Name())
	return TaskResult{
		ModelID:     id,
		Diagnostics: NewPhaseBreakdown(best.Diag),
		Tune:        rep,
	}, nil
}

// dataShape is a dataset's rows × dim, known without materializing it.
type dataShape struct{ rows, dim int }

// clusterDatasetRef converts a request's dataset reference to the task
// wire form, pinning stored datasets to their content checksums, and
// reports the dataset's shape (what sizes a search's pool).
func (s *Server) clusterDatasetRef(ref DatasetRef) (cluster.DatasetRef, dataShape, error) {
	switch {
	case ref.ID != "":
		h, err := s.store.Get(ref.ID)
		if err != nil {
			return cluster.DatasetRef{}, dataShape{}, err
		}
		man := h.Manifest()
		return cluster.DatasetRef{
			ID:         ref.ID,
			Rows:       man.Rows,
			RowCRC32:   man.RowCRC32,
			IndexCRC32: man.IndexCRC32,
		}, dataShape{man.Rows, man.Dim}, nil
	case ref.Synthetic != nil:
		r := ref.Synthetic
		rows, dim, err := datagen.Shape(r.Name, datagen.Config{Rows: r.Rows, Dim: r.Dim})
		if err != nil {
			return cluster.DatasetRef{}, dataShape{}, err
		}
		return cluster.DatasetRef{Synthetic: r}, dataShape{rows, dim}, nil
	case ref.Inline != nil:
		// Validated at admission, so the shape is trustworthy here.
		in := ref.Inline
		dim := in.Dim
		if len(in.X) > 0 {
			dim = len(in.X[0])
		} else if dim == 0 {
			for _, idx := range in.Indices {
				if n := len(idx); n > 0 && int(idx[n-1])+1 > dim {
					dim = int(idx[n-1]) + 1
				}
			}
		}
		return cluster.DatasetRef{Inline: in}, dataShape{in.Rows(), dim}, nil
	default:
		return cluster.DatasetRef{}, dataShape{}, errors.New("serve: missing dataset")
	}
}
