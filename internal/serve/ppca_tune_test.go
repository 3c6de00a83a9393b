package serve

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"blinkml/internal/datagen"
	"blinkml/internal/modelio"
	"blinkml/internal/models"
	"blinkml/internal/tune"
)

// TestPPCATuneRegistersTrainedSigmaSq: PPCA records its fitted noise
// variance σ² on the spec during training. A tune job's trials train
// copies of the candidate specs, so the winner must come back with the
// σ² its contract training found. The model a local and a cluster tune
// register must encode to the bytes of tune.RunSource's winner on the
// same data, and its σ² must not be the untrained default of 1.
func TestPPCATuneRegistersTrainedSigmaSq(t *testing.T) {
	req := TuneRequest{
		Space: SpaceJSON{Grid: []modelio.SpecJSON{
			{Name: "ppca", Factors: 2},
			{Name: "ppca", Factors: 3},
		}},
		Dataset: DatasetRef{Synthetic: &SyntheticRef{Name: "higgs", Rows: 3000, Dim: 8, Seed: 5}},
		Epsilon: 0.1,
		Delta:   0.05,
		Options: TuneOptions{Seed: 3, InitialSampleSize: 300},
	}

	local, err := New(Config{Dir: t.TempDir(), Workers: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	localTS := httptest.NewServer(local.Handler())
	defer func() {
		local.Close()
		localTS.Close()
	}()
	coord, clusterTS := newClusterServer(t, clusterTestConfig())
	startClusterWorker(t, clusterTS.URL, "w1")

	space, err := req.Space.Space()
	if err != nil {
		t.Fatal(err)
	}
	src, err := datagen.Generate("higgs", datagen.Config{Rows: 3000, Dim: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tune.RunSource(context.Background(), space, src, local.tuneConfig(req))
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best
	if s := best.Spec.(*models.PPCA).SigmaSq(); s == 1 {
		t.Fatalf("reference winner σ² = %v, the untrained default", s)
	}
	want := encodeForCompare(t, &modelio.Model{
		Spec:             best.Spec,
		Theta:            best.Theta,
		Dim:              8,
		SampleSize:       best.SampleSize,
		PoolSize:         best.PoolSize,
		EstimatedEpsilon: best.EstimatedEpsilon,
		UsedInitialModel: best.UsedInitialModel,
		Diag:             best.Diag,
	})

	for _, side := range []struct {
		name string
		s    *Server
		ts   *httptest.Server
	}{{"local", local, localTS}, {"cluster", coord, clusterTS}} {
		st := runJob(t, side.ts, "/v1/tune", req)
		if st.State != JobSucceeded {
			t.Fatalf("%s tune: %s (%s)", side.name, st.State, st.Error)
		}
		m, err := side.s.Registry().Get(st.ModelID)
		if err != nil {
			t.Fatal(err)
		}
		if got, ref := m.Spec.(*models.PPCA).SigmaSq(), best.Spec.(*models.PPCA).SigmaSq(); got != ref {
			t.Fatalf("%s tune registered σ² %v, want %v", side.name, got, ref)
		}
		if b := encodeForCompare(t, m); !bytes.Equal(b, want) {
			t.Fatalf("%s tune registered model differs from tune.RunSource's winner:\n got  %s\n want %s", side.name, b, want)
		}
	}
}

// encodeForCompare encodes m without its registration time and phase
// timings, the wall-clock fields that differ between two trainings of the
// same model.
func encodeForCompare(t *testing.T, m *modelio.Model) []byte {
	t.Helper()
	c := *m
	c.CreatedAt = time.Time{}
	c.Diag.InitialTrain, c.Diag.Statistics, c.Diag.SampleSearch, c.Diag.FinalTrain = 0, 0, 0, 0
	var buf bytes.Buffer
	if err := modelio.Encode(&buf, &c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
