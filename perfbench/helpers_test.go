package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the rule must sort
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		value, pc float64
	}{
		{100, 90, 90}, // exactly 10 observations beyond the 90th
		{40, 30, 75},
		{11, 1, 100.0 / 11},
		{10, 1, 10}, // no percentile has 10 beyond it: fall back to the minimum
		{1, 1, 100},
	} {
		v, pc := tailRule(seq(c.n))
		if v != c.value || math.Abs(pc-c.pc) > 1e-12 {
			t.Errorf("n=%d: got (%v, %v), want (%v, %v)", c.n, v, pc, c.value, c.pc)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if c.n > tailMinBeyond && beyond != tailMinBeyond {
			t.Errorf("n=%d: %d observations beyond the tail value, want %d", c.n, beyond, tailMinBeyond)
		}
	}
	if v, pc := tailRule(nil); v != 0 || pc != 0 {
		t.Errorf("empty: got (%v, %v)", v, pc)
	}
}

func TestQuantileMatchesInclusiveInterpolation(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.25); got != 1.75 {
		t.Errorf("q1 = %v, want 1.75", got)
	}
}

// fakeTarget models a server of known capacity behind the generator: below
// capacity every request is served promptly; above it the backlog grows for
// the whole step.
type fakeTarget struct {
	capacity  float64
	serviceMs float64
	occupancy float64 // server occupancy reported on overloaded steps
	calls     []float64
}

func (f *fakeTarget) step(qps float64) stepStats {
	f.calls = append(f.calls, qps)
	st := stepStats{OfferedQPS: qps, AchievedQPS: qps, Sent: int(qps), P99Ms: f.serviceMs, LagEarlyMs: 0.1, LagLateMs: 0.1, ServerOccupancy: qps / f.capacity}
	if qps > f.capacity {
		st.AchievedQPS = f.capacity
		backlogMs := (qps - f.capacity) / f.capacity * 1000 // after one second
		st.P99Ms = f.serviceMs + backlogMs
		st.LagLateMs = backlogMs
		st.ServerOccupancy = f.occupancy
	}
	return st
}

func TestSearchKneeFindsKnownCapacity(t *testing.T) {
	for _, capacity := range []float64{150, 1800, 50000} {
		f := &fakeTarget{capacity: capacity, serviceMs: 2, occupancy: 0.95}
		res := searchKnee(f.step, defaultKneeSLO, 100, 1.3, 40)
		// A step barely over capacity cannot fail within one second, so the
		// knee may sit a hair above it.
		if math.Abs(res.MaxOffered-capacity) > 0.01*capacity {
			t.Errorf("capacity %v: knee at %v offered (steps %v)", capacity, res.MaxOffered, f.calls)
		}
		if res.FirstFail <= capacity {
			t.Errorf("capacity %v: first failure at %v", capacity, res.FirstFail)
		}
		if res.GeneratorLimited {
			t.Errorf("capacity %v: a busy server was blamed on the generator", capacity)
		}
	}
}

func TestSearchKneeKeepsClimbingWithoutCeiling(t *testing.T) {
	// With the budget spent before any failure, the knee is a lower bound:
	// the last step climbed, and no failure is reported.
	f := &fakeTarget{capacity: 1e9, serviceMs: 1, occupancy: 1}
	res := searchKnee(f.step, defaultKneeSLO, 100, 2, 10)
	if res.FirstFail != 0 || res.MaxOffered != 100*math.Pow(2, 9) {
		t.Fatalf("got knee %v first fail %v after steps %v", res.MaxOffered, res.FirstFail, f.calls)
	}
}

func TestSearchKneeFlagsGeneratorLimit(t *testing.T) {
	f := &fakeTarget{capacity: 1000, serviceMs: 1, occupancy: 0.2}
	res := searchKnee(f.step, defaultKneeSLO, 100, 1.5, 20)
	if !res.GeneratorLimited {
		t.Fatalf("a failure with an idle server must be flagged generator-limited: %+v", res)
	}
}

func TestSearchKneeBelowStart(t *testing.T) {
	f := &fakeTarget{capacity: 60, serviceMs: 1, occupancy: 1}
	res := searchKnee(f.step, defaultKneeSLO, 100, 1.3, 20)
	if math.Abs(res.MaxOffered-60) > 0.6 {
		t.Fatalf("knee below the starting rate: got %v after %v", res.MaxOffered, f.calls)
	}
	// A short budget still descends far enough to sustain a step.
	f = &fakeTarget{capacity: 60, serviceMs: 1, occupancy: 1}
	res = searchKnee(f.step, defaultKneeSLO, 100, 1.3, 8)
	if res.MaxOffered == 0 || res.MaxOffered > 60 {
		t.Fatalf("short budget below the starting rate: got %v after %v", res.MaxOffered, f.calls)
	}
}

// TestMetricsDeclared checks that every metric the benchmark prints is
// declared, with its unit, in BENCHMARK.json — and nothing else is.
func TestMetricsDeclared(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	pattern := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, c := range []struct {
		trace    bool
		declared []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		want := make(map[string]string)
		for _, d := range c.declared {
			want[d.Name] = d.Unit
		}
		printed := metricSet(c.trace)
		if len(printed) != len(want) {
			t.Errorf("trace=%v: prints %d metrics, BENCHMARK.json declares %d", c.trace, len(printed), len(want))
		}
		for _, d := range printed {
			if !pattern.MatchString(d.Name) || len(d.Name) > 64 {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
			}
			unit, ok := want[d.Name]
			if !ok {
				t.Errorf("trace=%v: metric %q is not declared in BENCHMARK.json", c.trace, d.Name)
			} else if unit != d.Unit {
				t.Errorf("metric %q: unit %q, BENCHMARK.json says %q", d.Name, d.Unit, unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

func TestBuildResultRefusesMissingMetric(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}}
	if _, err := buildResult(defs, map[string]float64{"a": 1}, true, 1, 0); err == nil {
		t.Error("a missing metric must be an error")
	}
	if _, err := buildResult(defs, map[string]float64{"a": 1, "b": math.NaN()}, true, 1, 0); err == nil {
		t.Error("a NaN metric must be an error")
	}
	r, err := buildResult(defs, map[string]float64{"a": 1, "b": 2, "extra": 3}, true, 1, 0)
	if err != nil || len(r.Metrics) != 2 || r.Metrics["b"].Unit != "ms" {
		t.Errorf("got %+v, %v", r, err)
	}
}

func TestSpanSelfTime(t *testing.T) {
	var tree spanTree
	root, endRoot := tree.start(0, "job")
	_, endChild := tree.start(root, "core.train")
	time.Sleep(2 * time.Millisecond)
	endChild()
	endRoot()
	self := tree.selfTime()
	total := float64(tree.spans[root-1].Dur) / float64(time.Millisecond)
	if self["core.train"] <= 0 || math.Abs(self["job"]+self["core.train"]-total) > 1e-9 {
		t.Errorf("self times %v do not add up to the root's %v ms", self, total)
	}
}

func TestHistDeltaQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4, -1}
	before := []float64{5, 5, 5, 5}
	after := []float64{5, 15, 25, 25} // 10 new in (1,2], 10 new in (2,4]
	if got := histDeltaQuantile(bounds, before, after, 0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := histDeltaQuantile(bounds, before, after, 0.75); got != 3 {
		t.Errorf("p75 = %v, want 3", got)
	}
}
