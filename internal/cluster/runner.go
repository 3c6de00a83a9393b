package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"blinkml/internal/core"
	"blinkml/internal/modelio"
	"blinkml/internal/tune"
)

// TrialRunner implements tune.Runner by turning every trial into a task:
// the searcher's leaderboard logic stays with the caller while each
// candidate training (halving rungs and contract runs alike) goes through
// the dispatcher. Concurrent RunTrial calls — the searcher's worker pool —
// turn into concurrent outstanding tasks, so with a coordinator a search
// fans out across as many cluster workers as are free.
type TrialRunner struct {
	d       Dispatcher
	dataset DatasetRef
	options core.WireOptions
	poolLen int
}

// NewTrialRunner builds a runner for one search: every trial references the
// same dataset and training options, so executors rebuild (and memoize)
// one shared environment per search. poolLen is N for the dataset/options
// pair — core.PoolSize(rows, opts).
func NewTrialRunner(d Dispatcher, ref DatasetRef, opts core.WireOptions, poolLen int) *TrialRunner {
	return &TrialRunner{d: d, dataset: ref, options: opts, poolLen: poolLen}
}

// PoolLen implements tune.Runner.
func (r *TrialRunner) PoolLen() int { return r.poolLen }

// RunTrial implements tune.Runner: dispatch, decode.
func (r *TrialRunner) RunTrial(ctx context.Context, t tune.Trial) (tune.TrialResult, error) {
	sj, err := modelio.SpecToJSON(t.Spec)
	if err != nil {
		return tune.TrialResult{}, err
	}
	payload, err := r.d.Dispatch(ctx, TaskSpec{Kind: KindTrial, Trial: &TrialTask{
		Spec:     sj,
		Dataset:  r.dataset,
		Options:  r.options,
		Contract: t.Contract,
		N:        t.N,
		Rung:     t.Rung,
		Warm:     t.Warm,
	}})
	if err != nil {
		return tune.TrialResult{}, err
	}
	res := tune.TrialResult{
		Theta:      payload.Theta,
		Score:      DecodeScore(payload.Score),
		SampleSize: payload.SampleSize,
	}
	if t.Contract {
		m, err := DecodeModel(payload.Model)
		if err != nil {
			return tune.TrialResult{}, fmt.Errorf("cluster: trial %s: %w", sj.Name, err)
		}
		res.Theta = m.Theta
		res.SampleSize = m.SampleSize
		// The executor trained a copy decoded from sj; the envelope's spec
		// carries what training recorded on it (PPCA's σ²).
		res.Spec = m.Spec
		res.Res = &core.Result{
			Theta:            m.Theta,
			SampleSize:       m.SampleSize,
			EstimatedEpsilon: m.EstimatedEpsilon,
			UsedInitialModel: m.UsedInitialModel,
			PoolSize:         m.PoolSize,
			Diag:             m.Diag,
		}
	}
	return res, nil
}

// DecodeModel parses the modelio envelope a worker shipped back.
func DecodeModel(raw []byte) (*modelio.Model, error) {
	if len(raw) == 0 {
		return nil, errors.New("cluster: task result has no model")
	}
	return modelio.Decode(bytes.NewReader(raw))
}
