package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"syscall"
	"time"

	"flexos"
	"flexos/internal/cli"
	"flexos/internal/synth"
)

// The synthetic sweep: 10k points whose measure allocates nothing, so
// nearly all the time is the exploration engine's.
const (
	synthN = 10000
	synthQ = 0.95
	// synthSetups is how many times one run sets up (space, floor and
	// a full memo for the warm re-queries); setup_s is their median.
	synthSetups = 9
	// synthBudget caps fresh measurements in the budgeted mode. It
	// covers the feasible region plus its boundary at q=0.95 for any
	// seed, so the budgeted sweep decides exactly.
	synthBudget = 5000
	// synthFloors is the length of the seeded re-query list (floors at
	// quantiles 0.90–0.99); a run replays it in whole rounds, at least
	// minSynthRounds of them.
	synthFloors    = 10
	minSynthRounds = 5
)

// synthMode is one of the engine's three dispatch paths.
type synthMode struct {
	name   string
	prune  bool
	budget int
}

var synthModes = []synthMode{
	{"flat", false, 0},              // flat exhaustive dispatch (engine.go)
	{"pruned", true, 0},             // safety-DAG dispatch with pruning (engine.go)
	{"budgeted", true, synthBudget}, // branch-and-bound sweep (budget.go)
}

func synthQuery(space []*flexos.ExploreConfig, seed int64, floor float64, m synthMode) *flexos.Query {
	q := flexos.NewQuery(space).Measure(flexos.SynthMeasure(seed)).
		Floor(flexos.MetricThroughput, floor).Workers(2).Prune(m.prune)
	if m.budget > 0 {
		q.MeasureBudget(m.budget)
	}
	return q
}

// synthSetup builds what the timed phase needs: the space, the q=0.95
// floor, and a memo filled by one cold sweep for the warm re-queries.
func synthSetup(ctx context.Context, seed int64) ([]*flexos.ExploreConfig, float64, *flexos.ExploreMemo, error) {
	space := flexos.SynthSpace(seed, synthN)
	floor := flexos.SynthQuantileThroughput(seed, space, synthQ)
	memo := flexos.NewExploreMemo()
	_, err := synthQuery(space, seed, floor, synthModes[0]).Memo(memo).Run(ctx)
	if err != nil && !errors.Is(err, flexos.ErrNoFeasible) {
		return nil, 0, nil, err
	}
	return space, floor, memo, nil
}

// synthRun is one sweep's outcome as the checks need it.
type synthRun struct {
	report  string // what flexos-explore would print
	safest  []int  // config IDs, sorted
	skipped int
	res     *flexos.ExploreResult
}

func runSynth(ctx context.Context, q *flexos.Query, floor float64) (synthRun, error) {
	res, err := q.Run(ctx)
	noFeasible := errors.Is(err, flexos.ErrNoFeasible)
	if err != nil && !noFeasible {
		return synthRun{}, err
	}
	cs := []flexos.ExploreConstraint{{Metric: flexos.MetricThroughput, Op: flexos.AtLeast, Bound: floor}}
	out := synthRun{
		report:  cli.RenderReport("synth-10k", res, cs, true, false, false, noFeasible),
		skipped: res.Skipped,
		res:     res,
	}
	if !noFeasible {
		for _, i := range res.Safest {
			out.safest = append(out.safest, res.Measurements[i].Config.ID)
		}
		sort.Ints(out.safest)
	}
	return out, nil
}

func synth10k(ctx context.Context, e *env) (*result, error) {
	var (
		setups []float64
		space  []*flexos.ExploreConfig
		floor  float64
		memo   *flexos.ExploreMemo
	)
	for i := 0; i < synthSetups; i++ {
		t0 := time.Now()
		var err error
		space, floor, memo, err = synthSetup(ctx, e.seed)
		if err != nil {
			return nil, fmt.Errorf("synth-10k set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Timed phase: rounds alternating the three cold sweeps with the
	// warm re-queries of the same space under other floors (on the memo
	// the set-up filled), so that both sample the whole run.
	floors := synthRequeryFloors(space, e.seed)
	var sweepWalls, lat []float64
	first := make([]synthRun, len(synthModes))
	firstRQ := make([]synthRun, len(floors))
	var sweepTime, requeryTime time.Duration
	for round := 0; round < minSynthRounds || sweepTime+requeryTime < e.seconds; round++ {
		for k, m := range synthModes {
			s0 := time.Now()
			r, err := runSynth(ctx, synthQuery(space, e.seed, floor, m), floor)
			wall := time.Since(s0)
			e.acct.op("sweeps", err)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if err != nil {
				e.chk.fail("%s sweep: %v", m.name, err)
				continue
			}
			sweepTime += wall
			sweepWalls = append(sweepWalls, wall.Seconds())
			if round == 0 {
				first[k] = r
			} else if r.report != first[k].report {
				e.chk.fail("%s sweep round %d: report differs from round 1", m.name, round+1)
			}
		}
		for i, f := range floors {
			s0 := time.Now()
			r, err := runSynth(ctx, synthQuery(space, e.seed, f, synthModes[1]).Memo(memo), f)
			wall := time.Since(s0)
			e.acct.op("requeries", err)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if err != nil {
				e.chk.fail("re-query %d: %v", i, err)
				continue
			}
			requeryTime += wall
			lat = append(lat, ms(wall))
			if round == 0 {
				firstRQ[i] = r
			} else if r.report != firstRQ[i].report {
				e.chk.fail("re-query %d round %d: report differs from round 1", i, round+1)
			}
		}
	}
	rss := selfMaxRSS()

	checkSynth(e, space, floor, first, floors, firstRQ)
	e.acct.notes["requery_p90_ms"] = percentile(lat, 90)

	return &result{Metrics: map[string]metric{
		"setup_s":        {median(setups), "s"},
		"configs_per_s":  {float64(synthN*len(sweepWalls)) / sum(sweepWalls), "1/s"},
		"latency_p50_ms": {median(lat), "ms"},
		"throughput_rps": {float64(len(lat)) / requeryTime.Seconds(), "1/s"},
		"peak_rss_mib":   {float64(rss) / (1 << 20), "MiB"},
	}}, nil
}

// synthRequeryFloors draws the seeded re-query floors: throughput
// quantiles 0.90–0.99 of the space.
func synthRequeryFloors(space []*flexos.ExploreConfig, seed int64) []float64 {
	r := splitmix{s: uint64(seed)*0x9e3779b97f4a7c15 + 0x5a17}
	out := make([]float64, synthFloors)
	for i := range out {
		q := 0.90 + 0.01*float64(r.intn(10))
		out[i] = flexos.SynthQuantileThroughput(seed, space, q)
	}
	return out
}

// synthSafest is the brute-force oracle: feasibility straight from
// synth.Measure, then the maximal feasible elements under explore.Leq.
// It returns the sorted config IDs.
func synthSafest(space []*flexos.ExploreConfig, seed int64, floor float64) ([]int, error) {
	measure := synth.Measure(seed)
	var feasible []int
	for i, c := range space {
		m, err := measure(c)
		if err != nil {
			return nil, err
		}
		if m.Throughput >= floor {
			feasible = append(feasible, i)
		}
	}
	var ids []int
	for _, i := range maximal(space, feasible) {
		ids = append(ids, space[i].ID)
	}
	sort.Ints(ids)
	return ids, nil
}

// checkSynthRun compares one sweep with the oracle's safest set.
func checkSynthRun(name string, r synthRun, want []int) error {
	if r.skipped != 0 {
		return fmt.Errorf("%s: %d configurations skipped, the sweep did not decide exactly", name, r.skipped)
	}
	if fmt.Sprint(r.safest) != fmt.Sprint(want) {
		return fmt.Errorf("%s: safest %v, brute force %v", name, r.safest, want)
	}
	return nil
}

func checkSynth(e *env, space []*flexos.ExploreConfig, floor float64, modes []synthRun, floors []float64, rq []synthRun) {
	want, err := synthSafest(space, e.seed, floor)
	if err != nil {
		e.chk.fail("synth oracle: %v", err)
		return
	}
	for k, r := range modes {
		if r.res == nil {
			continue // failed sweep, already reported
		}
		if err := checkSynthRun(synthModes[k].name, r, want); err != nil {
			e.chk.fail("%v", err)
		}
		if r.report != modes[0].report {
			e.chk.fail("%s report differs from the flat report", synthModes[k].name)
		}
	}
	oracle := map[float64][]int{}
	for i, f := range floors {
		if rq[i].res == nil {
			continue
		}
		w, ok := oracle[f]
		if !ok {
			if w, err = synthSafest(space, e.seed, f); err != nil {
				e.chk.fail("synth oracle: %v", err)
				return
			}
			oracle[f] = w
		}
		if err := checkSynthRun(fmt.Sprintf("re-query %d", i), rq[i], w); err != nil {
			e.chk.fail("%v", err)
		}
	}
}

// selfMaxRSS is this process's kernel high-water RSS in bytes.
func selfMaxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}
