package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"blinkml/internal/audit"
	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
	"blinkml/internal/models"
	"blinkml/internal/tune"
)

// Dispatcher runs one task to completion and returns its result. There are
// two: *Coordinator ships the task to the worker fleet, and *Executor runs
// it in the calling goroutine.
type Dispatcher interface {
	Dispatch(ctx context.Context, spec TaskSpec) (*TaskResultPayload, error)
}

// Resolver opens the stored dataset a reference names by id. It is the one
// thing that differs between executor hosts: a worker fetches the bundle
// from the coordinator into its cache, while blinkml-serve opens its own
// store.
type Resolver func(ctx context.Context, ref DatasetRef) (dataset.Source, error)

// Executor runs task payloads: the one implementation of train, trial and
// audit work. Workers run leased tasks through it, and blinkml-serve
// without a coordinator runs its jobs' tasks through it in-process, so
// local and remote results agree bit for bit by construction.
type Executor struct {
	resolve Resolver

	mu    sync.Mutex
	envs  map[string]*envEntry
	order []string
}

// envsLimit bounds the prepared environments an executor keeps memoized.
const envsLimit = 4

// envEntry memoizes one prepared training environment.
type envEntry struct {
	once sync.Once
	env  *core.Env
	err  error
}

// NewExecutor returns an executor that opens stored datasets through
// resolve and keeps up to envsLimit prepared environments memoized, so the
// trials of one search pay data preparation once.
func NewExecutor(resolve Resolver) *Executor {
	return &Executor{resolve: resolve, envs: make(map[string]*envEntry)}
}

// Dispatch implements Dispatcher by running the task in the calling
// goroutine, under ctx's trace, recorder and ledger.
func (e *Executor) Dispatch(ctx context.Context, spec TaskSpec) (*TaskResultPayload, error) {
	switch spec.Kind {
	case KindTrain:
		return e.runTrain(ctx, spec.Train)
	case KindTrial:
		return e.runTrial(ctx, spec.Trial)
	case KindAudit:
		return e.runAudit(ctx, spec.Audit)
	default:
		return nil, fmt.Errorf("cluster: unknown task kind %q", spec.Kind)
	}
}

// runAudit replays one guarantee: rebuild the recorded environment, train
// the full-data model, and measure the realized difference against the
// shipped approximate parameters. The fingerprint of the full model's bits
// rides back as the determinism witness.
func (e *Executor) runAudit(ctx context.Context, t *AuditTask) (*TaskResultPayload, error) {
	spec, err := t.Spec.Spec()
	if err != nil {
		return nil, err
	}
	env, err := e.envFor(ctx, t.Dataset, t.Options)
	if err != nil {
		return nil, err
	}
	out, err := audit.Validate(ctx, env, spec, t.Theta, t.Bound, t.Options.MaxIters)
	if err != nil {
		return nil, err
	}
	return &TaskResultPayload{
		Realized:     out.Realized,
		Satisfied:    out.Satisfied,
		FullIters:    out.FullIters,
		FullThetaFNV: fmt.Sprintf("%016x", out.FullThetaFNV),
	}, nil
}

// runTrain executes a full BlinkML training run and returns the model in
// the modelio envelope.
func (e *Executor) runTrain(ctx context.Context, t *TrainTask) (*TaskResultPayload, error) {
	spec, err := t.Spec.Spec()
	if err != nil {
		return nil, err
	}
	src, err := e.source(ctx, t.Dataset)
	if err != nil {
		return nil, err
	}
	res, err := core.TrainSourceContext(ctx, spec, src, t.Options.Core())
	if err != nil {
		return nil, err
	}
	model, err := encodeModel(spec, res, src.Meta().Dim)
	if err != nil {
		return nil, err
	}
	return &TaskResultPayload{Model: model, SampleSize: res.SampleSize}, nil
}

// runTrial executes one search trial against the rebuilt environment
// (identical to the submitter's by split determinism).
func (e *Executor) runTrial(ctx context.Context, t *TrialTask) (*TaskResultPayload, error) {
	spec, err := t.Spec.Spec()
	if err != nil {
		return nil, err
	}
	env, err := e.envFor(ctx, t.Dataset, t.Options)
	if err != nil {
		return nil, err
	}
	runner := tune.NewEnvRunner(env, t.Options.Core())
	res, err := runner.RunTrial(ctx, tune.Trial{
		Spec:     spec,
		Contract: t.Contract,
		N:        t.N,
		Rung:     t.Rung,
		Warm:     t.Warm,
	})
	if err != nil {
		return nil, err
	}
	out := &TaskResultPayload{
		Theta:      res.Theta,
		Score:      encodeScore(res.Score),
		SampleSize: res.SampleSize,
	}
	if res.Res != nil {
		model, err := encodeModel(spec, res.Res, env.Holdout().Dim)
		if err != nil {
			return nil, err
		}
		out.Model = model
	}
	return out, nil
}

// envFor memoizes prepared environments per (dataset, options) so a search
// of many trials pays data preparation once.
func (e *Executor) envFor(ctx context.Context, ref DatasetRef, opts core.WireOptions) (*core.Env, error) {
	key := ref.Key() + "|" + envOptionsKey(opts)
	e.mu.Lock()
	ent, ok := e.envs[key]
	if !ok {
		ent = &envEntry{}
		e.envs[key] = ent
		e.order = append(e.order, key)
		for len(e.order) > envsLimit {
			old := e.order[0]
			e.order = e.order[1:]
			if old != key {
				delete(e.envs, old)
			}
		}
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		src, err := e.source(ctx, ref)
		if err != nil {
			ent.err = err
			return
		}
		ent.env, ent.err = core.NewEnvFromSource(src, opts.Core())
	})
	if ent.err != nil {
		// A failed build must not poison the cache for later tasks (the
		// fetch may have been interrupted by a cancellation).
		e.mu.Lock()
		if e.envs[key] == ent {
			delete(e.envs, key)
		}
		e.mu.Unlock()
	}
	return ent.env, ent.err
}

// envOptionsKey fingerprints the options fields that shape an environment
// (split fractions and seed; the contract fields don't change the split but
// keying on all of them is harmlessly conservative).
func envOptionsKey(opts core.WireOptions) string {
	b, _ := json.Marshal(opts)
	return string(b)
}

// source resolves a dataset reference: synthetic workloads regenerate
// locally, inline rows come from the payload, and store ids go through the
// executor's resolver.
func (e *Executor) source(ctx context.Context, ref DatasetRef) (dataset.Source, error) {
	switch {
	case ref.Synthetic != nil:
		s := ref.Synthetic
		return datagen.Generate(s.Name, datagen.Config{Rows: s.Rows, Dim: s.Dim, Seed: s.Seed})
	case ref.Inline != nil:
		return ref.Inline.Build()
	case ref.ID != "":
		return e.resolve(ctx, ref)
	default:
		return nil, errors.New("cluster: task has no dataset")
	}
}

// encodeScore maps a trial score to the wire (nil encodes NaN, which JSON
// cannot carry).
func encodeScore(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

// DecodeScore is the inverse of encodeScore.
func DecodeScore(p *float64) float64 {
	if p == nil {
		return math.NaN()
	}
	return *p
}

// encodeModel serializes a training result as a modelio envelope.
func encodeModel(spec models.Spec, res *core.Result, dim int) ([]byte, error) {
	var buf bytes.Buffer
	err := modelio.Encode(&buf, &modelio.Model{
		Spec:             spec,
		Theta:            res.Theta,
		Dim:              dim,
		SampleSize:       res.SampleSize,
		PoolSize:         res.PoolSize,
		EstimatedEpsilon: res.EstimatedEpsilon,
		UsedInitialModel: res.UsedInitialModel,
		Diag:             res.Diag,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
