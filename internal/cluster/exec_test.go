package cluster

import (
	"context"
	"sync"
	"testing"

	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/modelio"
)

// TestExecutorSharesOneEnvAcrossTrials: concurrent trials of one search —
// same inline payload, same options — must share a single prepared
// environment, as tune.RunSource's one Env per search does.
func TestExecutorSharesOneEnvAcrossTrials(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 1500, Dim: 5, Seed: 4})
	in := &Inline{Task: "binary", Y: ds.Y}
	for i := 0; i < ds.Len(); i++ {
		row := make([]float64, ds.Dim)
		ds.X[i].AddTo(row, 1)
		in.X = append(in.X, row)
	}
	ref := DatasetRef{Inline: in}
	opts := core.Options{Epsilon: 0.1, Seed: 3, InitialSampleSize: 200}.Wire()
	e := NewExecutor(nil)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			_, err := e.Dispatch(context.Background(), TaskSpec{Kind: KindTrial, Trial: &TrialTask{
				Spec: modelio.SpecJSON{Name: "logistic", Reg: 0.01}, Dataset: ref, Options: opts, N: 100 * n,
			}})
			if err != nil {
				t.Error(err)
			}
		}(i + 1)
	}
	wg.Wait()

	if len(e.envs) != 1 {
		t.Fatalf("executor holds %d environments, want 1", len(e.envs))
	}
	a, err := e.envFor(context.Background(), ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.envFor(context.Background(), ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("trials of one search rebuilt the environment")
	}
}
