package main

// stepStats is what one open-loop step at a fixed offered rate observed.
type stepStats struct {
	OfferedQPS  float64
	AchievedQPS float64
	Sent        int
	Errors      int
	// P99Ms is the client latency p99, measured from each request's due
	// time. LagEarlyMs and LagLateMs are the median send lag over the first
	// and the last quarter of the step's schedule.
	P99Ms      float64
	LagEarlyMs float64
	LagLateMs  float64
	// ServerOccupancy is the share of the connections' time the server
	// spent inside the route handler: server route time ÷ (wall ×
	// connections). Near 1 the server is the bottleneck; well below it the
	// connections idle outside the server, on the generator side.
	ServerOccupancy float64
}

// kneeSLO decides whether a step was sustained.
type kneeSLO struct {
	P99Ms float64 // client p99 limit
	// MinAchieved is the tolerated achieved ÷ offered ratio.
	MinAchieved float64
	// MaxLagGrowthMs is how much later the last quarter's sends may run
	// than the first quarter's before the backlog counts as growing.
	MaxLagGrowthMs float64
	// MinOccupancy is the server occupancy below which a failed step is
	// blamed on the generator rather than the server.
	MinOccupancy float64
}

var defaultKneeSLO = kneeSLO{P99Ms: 25, MinAchieved: 0.95, MaxLagGrowthMs: 5, MinOccupancy: 0.5}

// sustained reports whether the step met the SLO: p99 under the limit, the
// offered rate achieved within tolerance, no errors and no growing backlog.
func (s kneeSLO) sustained(st stepStats) bool {
	return st.Errors == 0 &&
		st.P99Ms <= s.P99Ms &&
		st.AchievedQPS >= s.MinAchieved*st.OfferedQPS &&
		st.LagLateMs-st.LagEarlyMs <= s.MaxLagGrowthMs
}

// kneeResult is the outcome of a knee search.
type kneeResult struct {
	// MaxQPS is the achieved rate of the highest sustained step (0 if no
	// step was sustained).
	MaxQPS     float64
	MaxOffered float64
	// FirstFail is the lowest offered rate seen failing (0 if none did
	// within the step budget, in which case MaxQPS is a lower bound).
	FirstFail float64
	// GeneratorLimited is set when the step that bounded the search failed
	// while the server was mostly idle: the knee then measures the load
	// generator, and MaxQPS is only a lower bound on the server's.
	GeneratorLimited bool
	Steps            []stepStats
}

// searchKnee finds the highest sustained offered rate. It climbs
// geometrically from start by growth until a step fails — with no preset
// ceiling, so the search never stops at an arbitrary last step — then
// bisects between the highest sustained and the lowest failed rate with
// the steps left. When even the starting rate fails it first descends by
// growth until a step is sustained. A failed step is run once more before it counts, so one
// stall of the machine does not end the climb. step runs one open-loop
// step at the given rate.
func searchKnee(step func(qps float64) stepStats, slo kneeSLO, start, growth float64, maxSteps int) kneeResult {
	var res kneeResult
	run := func(q float64) bool {
		st := step(q)
		res.Steps = append(res.Steps, st)
		if !slo.sustained(st) && len(res.Steps) < maxSteps {
			st = step(q)
			res.Steps = append(res.Steps, st)
		}
		if slo.sustained(st) {
			if q > res.MaxOffered {
				res.MaxOffered, res.MaxQPS = q, st.AchievedQPS
			}
			return true
		}
		if res.FirstFail == 0 || q < res.FirstFail {
			res.FirstFail = q
			res.GeneratorLimited = st.ServerOccupancy < slo.MinOccupancy
		}
		return false
	}
	q := start
	for len(res.Steps) < maxSteps && run(q) {
		q *= growth
	}
	for len(res.Steps) < maxSteps && res.FirstFail > 0 {
		if res.MaxOffered == 0 {
			run(res.FirstFail / growth) // nothing sustained yet: descend
			continue
		}
		run((res.MaxOffered + res.FirstFail) / 2)
	}
	return res
}
