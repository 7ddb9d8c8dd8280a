package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"flexos"
	"flexos/internal/cli"
	"flexos/internal/explore"
)

// smallOracle is a 400-point synthetic space with its measured vectors
// and a throughput floor near the 90th percentile: small enough for
// brute force in a test, shaped like the real spaces.
func smallOracle(t *testing.T) (*attackOracle, string) {
	t.Helper()
	cfgs := flexos.SynthSpace(7, 400)
	measure := flexos.SynthMeasure(7)
	o := &attackOracle{cfgs: cfgs, metrics: make([]flexos.Metrics, len(cfgs))}
	for i, c := range cfgs {
		m, err := measure(c)
		if err != nil {
			t.Fatal(err)
		}
		o.metrics[i] = m
	}
	floor := flexos.SynthQuantileThroughput(7, cfgs, 0.9)
	return o, fmt.Sprintf("throughput>=%.0f", floor)
}

// programReport renders the program's own report for the oracle's
// space under one budget, as flexos-explore prints it.
func programReport(t *testing.T, o *attackOracle, budget string) string {
	t.Helper()
	c, err := flexos.ParseConstraint(budget)
	if err != nil {
		t.Fatal(err)
	}
	res, err := flexos.NewQuery(o.cfgs).Measure(flexos.SynthMeasure(7)).
		Constrain(c.Metric, c.Op, c.Bound).Prune(false).Run(context.Background())
	noFeasible := errors.Is(err, flexos.ErrNoFeasible)
	if err != nil && !noFeasible {
		t.Fatal(err)
	}
	return cli.RenderReport("small", res, []flexos.ExploreConstraint{c}, true, false, false, noFeasible)
}

func TestCheckReportCatchesMutations(t *testing.T) {
	o, budget := smallOracle(t)
	report := programReport(t, o, budget)
	if err := checkReport("intact", report, o, []string{budget}); err != nil {
		t.Fatalf("intact report rejected: %v", err)
	}
	lines := strings.Split(report, "\n")
	var safest []int
	for i, l := range lines {
		if strings.HasPrefix(l, "  * ") {
			safest = append(safest, i)
		}
	}
	if len(safest) < 2 {
		t.Fatalf("want at least two safest configurations to mutate, report:\n%s", report)
	}
	mutate := func(f func([]string) []string) string {
		return strings.Join(f(append([]string(nil), lines...)), "\n")
	}
	mutants := map[string]string{
		"dropped line": mutate(func(ls []string) []string { return append(ls[:safest[0]], ls[safest[0]+1:]...) }),
		"changed metrics": mutate(func(ls []string) []string {
			ls[safest[0]] = strings.Replace(ls[safest[0]], "op/s", "op/s ", 1)
			return ls
		}),
		"duplicated line": mutate(func(ls []string) []string {
			ls[safest[1]] = ls[safest[0]]
			return ls
		}),
		"wrong count": strings.Replace(report, fmt.Sprintf("constraint: %d", len(safest)), fmt.Sprintf("constraint: %d", len(safest)+1), 1),
		"claims infeasible": mutate(func(ls []string) []string {
			return append(ls[:safest[0]-1], "no configuration satisfies every constraint")
		}),
	}
	for name, m := range mutants {
		if m == report {
			t.Fatalf("%s: mutation left the report unchanged", name)
		}
		if err := checkReport(name, m, o, []string{budget}); err == nil {
			t.Errorf("%s: mutated report accepted", name)
		}
	}
	// An infeasible floor: the honest report says so, and a report
	// listing a configuration anyway is caught.
	none := "throughput>=1e12"
	honest := programReport(t, o, none)
	if err := checkReport("infeasible", honest, o, []string{none}); err != nil {
		t.Fatalf("honest infeasible report rejected: %v", err)
	}
	if err := checkReport("infeasible", honest+lines[safest[0]]+"\n", o, []string{none}); err == nil {
		t.Error("infeasible report listing a configuration accepted")
	}
}

func TestCheckSurvivalCatchesMutations(t *testing.T) {
	o, _ := smallOracle(t)
	// A monotone score: the share of configurations each one dominates.
	for i := range o.cfgs {
		n := 0
		for j := range o.cfgs {
			if explore.Leq(o.cfgs[j], o.cfgs[i]) {
				n++
			}
		}
		o.metrics[i].Survival = float64(n) / float64(len(o.cfgs))
	}
	if err := checkSurvival(o); err != nil {
		t.Fatalf("monotone survival rejected: %v", err)
	}
	var lo, hi int = -1, -1
	for i := range o.cfgs {
		for j := range o.cfgs {
			if i != j && explore.Leq(o.cfgs[i], o.cfgs[j]) && !explore.Leq(o.cfgs[j], o.cfgs[i]) {
				lo, hi = i, j
				break
			}
		}
		if lo >= 0 {
			break
		}
	}
	if lo < 0 {
		t.Fatal("no ordered pair in the space")
	}
	inverted := *o
	inverted.metrics = append([]flexos.Metrics(nil), o.metrics...)
	inverted.metrics[lo].Survival, inverted.metrics[hi].Survival = 0.9, 0.1
	if checkSurvival(&inverted) == nil {
		t.Error("survival decreasing along Leq accepted")
	}
	outside := *o
	outside.metrics = append([]flexos.Metrics(nil), o.metrics...)
	outside.metrics[0].Survival = 1.5
	if checkSurvival(&outside) == nil {
		t.Error("survival above 1 accepted")
	}
}

func TestCheckRemeasureCatchesMutations(t *testing.T) {
	o, _ := smallOracle(t)
	measure := flexos.SynthMeasure(7)
	if err := checkRemeasure(o, 3, measure); err != nil {
		t.Fatalf("intact store rejected: %v", err)
	}
	for i := range o.metrics {
		o.metrics[i].Throughput += 1e-9 * o.metrics[i].Throughput // one ulp-scale change
	}
	if checkRemeasure(o, 3, measure) == nil {
		t.Error("store vectors differing from a re-measurement accepted")
	}
}

func TestCheckSynthCatchesMutations(t *testing.T) {
	space := flexos.SynthSpace(5, 600)
	floor := flexos.SynthQuantileThroughput(5, space, synthQ)
	runs := make([]synthRun, len(synthModes))
	for k, m := range synthModes {
		r, err := runSynth(context.Background(), synthQuery(space, 5, floor, m), floor)
		if err != nil {
			t.Fatal(err)
		}
		runs[k] = r
	}
	e := &env{seed: 5, chk: &checker{}}
	checkSynth(e, space, floor, runs, nil, nil)
	if len(e.chk.failures) > 0 {
		t.Fatalf("intact sweeps rejected: %v", e.chk.failures)
	}

	dropped := runs[1]
	dropped.safest = dropped.safest[1:]
	skipped := runs[2]
	skipped.skipped = 1
	reworded := runs[2]
	reworded.report += " "
	for name, mutant := range map[string][]synthRun{
		"dropped safest": {runs[0], dropped, runs[2]},
		"skipped":        {runs[0], runs[1], skipped},
		"report differs": {runs[0], runs[1], reworded},
	} {
		e := &env{seed: 5, chk: &checker{}}
		checkSynth(e, space, floor, mutant, nil, nil)
		if len(e.chk.failures) == 0 {
			t.Errorf("%s: mutated sweep accepted", name)
		}
	}
}

func TestResponseSumCatchesMutations(t *testing.T) {
	sched, err := replaySchedule(3, 60)
	if err != nil {
		t.Fatal(err)
	}
	_, index := distinctRequests(sched)
	reports := make([]string, len(index))
	for k, i := range index {
		reports[i] = "report of " + k
	}
	want := expectedSum(sched, index, reports)
	received := func(mut func(i int, r string) string) string {
		hashes := make([]uint64, len(sched))
		for i, s := range sched {
			hashes[i] = fnvOf(mut(i, reports[index[string(s.Request.Encode())]]))
		}
		return responseSum(hashes)
	}
	if got := received(func(_ int, r string) string { return r }); got != want {
		t.Fatalf("intact replay: sum %s, want %s", got, want)
	}
	for name, mut := range map[string]func(int, string) string{
		"one report changed": func(i int, r string) string {
			if i == len(sched)/2 {
				return r + "x"
			}
			return r
		},
		"one request failed": func(i int, r string) string {
			if i == 0 {
				return "error"
			}
			return r
		},
		"two swapped": func(i int, r string) string {
			switch i {
			case 0:
				return reports[index[string(sched[1].Request.Encode())]]
			case 1:
				return reports[index[string(sched[0].Request.Encode())]]
			}
			return r
		},
	} {
		if name == "two swapped" && string(sched[0].Request.Encode()) == string(sched[1].Request.Encode()) {
			continue // identical requests: swapping changes nothing
		}
		if received(mut) == want {
			t.Errorf("%s: digest unchanged", name)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || median(xs[:4]) != 3 {
		t.Errorf("median: %v %v", median(xs), median(xs[:4]))
	}
	if percentile(xs, 90) != 5 || percentile(xs, 20) != 1 || percentile(xs, 50) != 3 {
		t.Errorf("percentile: %v %v %v", percentile(xs, 90), percentile(xs, 20), percentile(xs, 50))
	}
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 15}, {Start: 20, End: 30}}
	if got := covered(spans, 0, 100); got != 25 {
		t.Errorf("covered = %d, want 25", got)
	}
	if got := covered(spans, 8, 22); got != 9 {
		t.Errorf("clipped covered = %d, want 9", got)
	}
}
