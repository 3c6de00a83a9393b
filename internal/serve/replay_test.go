package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"blinkml/internal/audit"
	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/modelio"
	"blinkml/internal/optimize"
)

// recordedOptionsRecord is an audit record whose holdout_fraction and
// max_holdout are off their defaults: a replay that dropped either would
// split the data differently and train the full model on another pool.
const recordedOptionsRecord = `{
	"kind": "train", "family": "logistic",
	"spec": {"name": "logistic", "reg": 0.001},
	"dataset": {"synthetic": {"name": "higgs", "rows": 4000, "dim": 8, "seed": 11}},
	"epsilon": 0.1, "delta": 0.05, "k": 100,
	"options": {"epsilon": 0.1, "delta": 0.05, "k": 100, "method": 0, "seed": 7,
		"initial_sample_size": 400, "min_sample_size": 400,
		"holdout_fraction": 0.25, "max_holdout": 700}
}`

// TestAuditReplayHonorsRecordedOptions: replaying one record in cluster
// mode and in-process must rebuild the recorded environment from every
// recorded option, so both replays land on the full model that direct
// training at the recorded options produces.
func TestAuditReplayHonorsRecordedOptions(t *testing.T) {
	var rec audit.Record
	if err := json.Unmarshal([]byte(recordedOptionsRecord), &rec); err != nil {
		t.Fatal(err)
	}
	spec, err := rec.Spec.Spec()
	if err != nil {
		t.Fatal(err)
	}
	src, err := datagen.Generate("higgs", datagen.Config{Rows: 4000, Dim: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	env, err := core.NewEnvFromSource(src, rec.Options.Core())
	if err != nil {
		t.Fatal(err)
	}
	approx, err := env.TrainApprox(spec, rec.Options.Core())
	if err != nil {
		t.Fatal(err)
	}
	full, err := env.TrainFull(spec, optimize.Options{MaxIters: rec.Options.MaxIters})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%016x", core.ThetaFingerprint(full.Theta))

	replay := func(s *Server, ts *httptest.Server) string {
		t.Helper()
		id, err := s.Registry().Put(&modelio.Model{Spec: spec, Theta: approx.Theta, Dim: 8})
		if err != nil {
			t.Fatal(err)
		}
		r := rec
		r.ModelID = id
		r.EpsilonHat = approx.EstimatedEpsilon
		if err := s.audit.Append(r); err != nil {
			t.Fatal(err)
		}
		var rr AuditReplayResponse
		if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/audit/replay", AuditReplayRequest{ModelID: id}, &rr); code != http.StatusOK {
			t.Fatalf("replay status %d", code)
		}
		if rr.Entry == nil || rr.Entry.Replay == nil || rr.Entry.Replay.Error != "" {
			t.Fatalf("replay outcome: %+v", rr.Entry)
		}
		return rr.Entry.Replay.FullThetaFNV
	}

	local, err := New(Config{Dir: t.TempDir(), Workers: 1, QueueDepth: 4})
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

	got := replay(local, localTS)
	remote := replay(coord, clusterTS)
	if got != remote {
		t.Fatalf("in-process replay %s != cluster replay %s", got, remote)
	}
	if got != want {
		t.Fatalf("replay %s != direct training at the recorded options %s", got, want)
	}
}
