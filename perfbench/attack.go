package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"flexos"
	"flexos/internal/explore"
	"flexos/internal/store"
)

// The attack sweep: the Redis GET-90% scenario on the RISC-V profile,
// scored against the combined attacker, over the 960-point space the
// attack axis expands Fig6 into.
const (
	attackScenario = "redis-get90"
	attackName     = "combined"
	attackProfile  = "riscv"
	attackFloor    = "survival>=0.5"
	attackSpace    = 960
	// coldSweeps is how many cold sweeps (each into a fresh store) one
	// run makes: the set-up whose median is setup_s. peak_rss_mib is
	// the highest of their peaks: one sweep's lands near 180 or near
	// 220 MiB with the garbage collector's timing, and five sweeps
	// nearly always include the higher.
	coldSweeps = 5
	// requeryList is the length of the seeded re-query list; a run
	// replays it in whole rounds, at least minRequeryRounds of them.
	requeryList      = 40
	minRequeryRounds = 3
	// remeasureSample is how many stored configurations each run
	// re-measures in-process to prove the store holds bit-equal values.
	remeasureSample = 6
)

// attackFlags are the flexos-explore flags shared by the cold sweep
// and the warm re-queries.
func attackFlags() []string {
	return []string{"-scenario", attackScenario, "-attack", attackName, "-profile", attackProfile, "-workers", "2"}
}

// requery is one warm re-query: the same space under other floors.
type requery struct{ budgets []string }

// args runs the re-query read-only against the cold sweep's store. It
// is exhaustive because a throughput floor prunes on the assumption
// that throughput never rises along the safety order, which the
// measured attack space breaks (see README.md): a pruned re-query can
// drop a feasible configuration, and only on some seeds' floors.
func (r requery) args(storeDir string) []string {
	args := append(attackFlags(), "-cache", storeDir, "-cache-readonly", "-exhaustive")
	for _, b := range r.budgets {
		args = append(args, "-budget", b)
	}
	return args
}

// requeries draws the seeded re-query list: survival floors from 0.30
// to 0.95 and throughput floors from 0 to 400k op/s, in steps that
// land on both sides of the space's values.
func requeries(seed int64) []requery {
	r := splitmix{s: uint64(seed)*0x9e3779b97f4a7c15 + 0xa77ac4}
	out := make([]requery, requeryList)
	for i := range out {
		surv := 0.30 + 0.05*float64(r.intn(14))
		tput := 25000 * r.intn(17)
		out[i] = requery{budgets: []string{
			fmt.Sprintf("survival>=%.2f", surv),
			fmt.Sprintf("throughput>=%d", tput),
		}}
	}
	return out
}

func attackSweep(ctx context.Context, e *env) (*result, error) {
	explorer := filepath.Join(e.bin, "flexos-explore")

	// Cold sweeps (the set-up, each into a fresh store) alternate with
	// whole rounds of the re-query list against the newest store, one
	// process at a time, so that both sample the whole run.
	var (
		walls, rss, lat []float64
		cold            []runOnce
		stores          []string
		requeryTime     time.Duration
	)
	list := requeries(e.seed)
	first := make([]string, len(list)) // round-one reports, checked below
	round := 0
	for k := 0; k < coldSweeps; k++ {
		dir, err := e.dir("attack-store-")
		if err != nil {
			return nil, err
		}
		args := append(attackFlags(), "-budget", attackFloor, "-cache", dir)
		r, err := runCmd(ctx, explorer, args...)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		e.acct.op("cold_sweeps", err)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			continue
		}
		walls = append(walls, r.wall.Seconds())
		rss = append(rss, float64(r.maxRSS))
		cold = append(cold, r)
		stores = append(stores, dir)

		share := e.seconds * time.Duration(k+1) / coldSweeps
		for round == 0 || requeryTime < share || (k == coldSweeps-1 && round < minRequeryRounds) {
			t0 := time.Now()
			for i, q := range list {
				r, err := runCmd(ctx, explorer, q.args(dir)...)
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				e.acct.op("requeries", err)
				if err != nil {
					fmt.Fprintln(os.Stderr, "perfbench:", err)
					continue
				}
				lat = append(lat, ms(r.wall))
				if round == 0 {
					first[i] = r.stdout
				} else if r.stdout != first[i] {
					e.chk.fail("re-query %d round %d: report differs from round 1", i, round+1)
				}
			}
			requeryTime += time.Since(t0)
			round++
		}
	}
	if len(cold) == 0 {
		return nil, fmt.Errorf("attack-sweep: every cold sweep failed")
	}

	checkAttack(e, cold, stores, list, first)
	e.acct.notes["requery_p90_ms"] = percentile(lat, 90)
	e.acct.notes["cold_rss_mib"] = mib(rss)

	return &result{Metrics: map[string]metric{
		"setup_s":        {median(walls), "s"},
		"configs_per_s":  {float64(attackSpace*len(walls)) / sum(walls), "1/s"},
		"latency_p50_ms": {median(lat), "ms"},
		"throughput_rps": {float64(len(lat)) / requeryTime.Seconds(), "1/s"},
		"peak_rss_mib":   {slices.Max(rss) / (1 << 20), "MiB"},
	}}, nil
}

// attackOracle holds the swept space and the vectors a store holds for
// it, indexed like the space.
type attackOracle struct {
	cfgs    []*flexos.ExploreConfig
	metrics []flexos.Metrics
}

// attackConfigs rebuilds the swept space in-process, with the memo
// namespace its store keys carry.
func attackConfigs() ([]*flexos.ExploreConfig, string, error) {
	sc, ok := flexos.ScenarioByName(attackScenario)
	if !ok {
		return nil, "", fmt.Errorf("no scenario %s", attackScenario)
	}
	att, ok := flexos.AttackByName(attackName)
	if !ok {
		return nil, "", fmt.Errorf("no attack %s", attackName)
	}
	profile, err := flexos.CanonicalProfile(attackProfile)
	if err != nil {
		return nil, "", err
	}
	quad, _ := sc.Quad()
	cfgs := flexos.AttackSpace(flexos.Fig6Space(quad), flexos.AttackSpec{Scenario: att.Name(), Profile: profile})
	return cfgs, flexos.AttackNamespace(att, sc.MemoKey()), nil
}

// loadAttackStore reads every configuration's vector from a store.
func loadAttackStore(dir string) (*attackOracle, error) {
	cfgs, ns, err := attackConfigs()
	if err != nil {
		return nil, err
	}
	st, err := store.OpenReadOnly(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	o := &attackOracle{cfgs: cfgs, metrics: make([]flexos.Metrics, len(cfgs))}
	for i, c := range cfgs {
		m, ok := st.Load(flexos.MemoKey(ns, c))
		if !ok {
			return nil, fmt.Errorf("store %s lacks config %d (%s)", dir, c.ID, c.Label())
		}
		o.metrics[i] = m
	}
	return o, nil
}

// safestLines renders the brute-force safest set under the given
// constraints exactly as the report lists it: the maximal elements
// under explore.Leq among the configurations meeting every constraint.
// It returns nil when no configuration is feasible.
func safestLines(cfgs []*flexos.ExploreConfig, metrics []flexos.Metrics, cs []flexos.ExploreConstraint) []string {
	var feasible []int
	for i := range cfgs {
		ok := true
		for _, c := range cs {
			ok = ok && c.Meets(metrics[i])
		}
		if ok {
			feasible = append(feasible, i)
		}
	}
	if len(feasible) == 0 {
		return nil
	}
	lines := []string{}
	for _, i := range maximal(cfgs, feasible) {
		lines = append(lines, fmt.Sprintf("  * %-55s %s", cfgs[i].Label(), metrics[i]))
	}
	sort.Strings(lines)
	return lines
}

// maximal returns the members of set that no other member strictly
// dominates under explore.Leq — by brute force over every pair.
func maximal(cfgs []*flexos.ExploreConfig, set []int) []int {
	var out []int
	for _, i := range set {
		dominated := false
		for _, j := range set {
			if i != j && explore.Leq(cfgs[i], cfgs[j]) && !explore.Leq(cfgs[j], cfgs[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// checkReport compares one flexos-explore report with the brute-force
// safest set under its constraints.
func checkReport(name, report string, o *attackOracle, budgets []string) error {
	var cs []flexos.ExploreConstraint
	for _, b := range budgets {
		c, err := flexos.ParseConstraint(b)
		if err != nil {
			return fmt.Errorf("%s: constraint %q: %v", name, b, err)
		}
		cs = append(cs, c)
	}
	want := safestLines(o.cfgs, o.metrics, cs)
	var got []string
	infeasible := false
	count := -1
	for _, line := range strings.Split(report, "\n") {
		switch {
		case strings.HasPrefix(line, "  * "):
			got = append(got, line)
		case line == "no configuration satisfies every constraint":
			infeasible = true
		case strings.HasPrefix(line, "safest configurations satisfying every constraint: "):
			fmt.Sscanf(strings.TrimPrefix(line, "safest configurations satisfying every constraint: "), "%d", &count)
		}
	}
	sort.Strings(got)
	switch {
	case want == nil && !infeasible:
		return fmt.Errorf("%s: no configuration is feasible, but the report lists %d safest", name, len(got))
	case want != nil && infeasible:
		return fmt.Errorf("%s: report says infeasible, brute force finds %d safest", name, len(want))
	case want != nil && count != len(got):
		return fmt.Errorf("%s: report counts %d safest but lists %d", name, count, len(got))
	case strings.Join(got, "\n") != strings.Join(want, "\n"):
		return fmt.Errorf("%s: safest set differs from brute force:\n got %q\nwant %q", name, got, want)
	}
	return nil
}

// checkSurvival proves the stored survival scores are probabilities
// and never decrease along the safety order.
func checkSurvival(o *attackOracle) error {
	for i, m := range o.metrics {
		if !(m.Survival >= 0 && m.Survival <= 1) {
			return fmt.Errorf("config %d: survival %v outside [0,1]", o.cfgs[i].ID, m.Survival)
		}
	}
	for i := range o.cfgs {
		for j := range o.cfgs {
			if i != j && explore.Leq(o.cfgs[i], o.cfgs[j]) && o.metrics[i].Survival > o.metrics[j].Survival {
				return fmt.Errorf("survival decreases along Leq: config %d (%v) <= config %d (%v)",
					o.cfgs[i].ID, o.metrics[i].Survival, o.cfgs[j].ID, o.metrics[j].Survival)
			}
		}
	}
	return nil
}

// checkRemeasure re-measures a seeded sample of configurations
// in-process and requires the stored vectors to be bit-equal.
func checkRemeasure(o *attackOracle, seed int64, measure func(*flexos.ExploreConfig) (flexos.Metrics, error)) error {
	r := splitmix{s: uint64(seed) ^ 0x5eed}
	for k := 0; k < remeasureSample; k++ {
		i := r.intn(len(o.cfgs))
		m, err := measure(o.cfgs[i])
		if err != nil {
			return fmt.Errorf("re-measure config %d: %v", o.cfgs[i].ID, err)
		}
		if m != o.metrics[i] {
			return fmt.Errorf("config %d: stored %v, re-measured %v", o.cfgs[i].ID, o.metrics[i], m)
		}
	}
	return nil
}

// checkAttack runs every attack-sweep output check.
func checkAttack(e *env, cold []runOnce, stores []string, list []requery, first []string) {
	last, err := loadAttackStore(stores[len(stores)-1])
	if err != nil {
		e.chk.fail("attack store: %v", err)
		return
	}
	for k := range cold {
		if k > 0 && cold[k].stdout != cold[0].stdout {
			e.chk.fail("cold sweep %d: report differs from cold sweep 1", k+1)
		}
		o, err := loadAttackStore(stores[k])
		if err != nil {
			e.chk.fail("attack store %d: %v", k+1, err)
			continue
		}
		for i := range o.metrics {
			if o.metrics[i] != last.metrics[i] {
				e.chk.fail("store %d: config %d differs between cold sweeps", k+1, o.cfgs[i].ID)
				break
			}
		}
	}
	if err := checkReport("cold sweep", cold[0].stdout, last, []string{attackFloor}); err != nil {
		e.chk.fail("%v", err)
	}
	for i, q := range list {
		if first[i] == "" {
			continue // the re-query failed; counted in accounting
		}
		if err := checkReport(fmt.Sprintf("re-query %d %v", i, q.budgets), first[i], last, q.budgets); err != nil {
			e.chk.fail("%v", err)
		}
	}
	if err := checkSurvival(last); err != nil {
		e.chk.fail("%v", err)
	}
	sc, _ := flexos.ScenarioByName(attackScenario)
	att, _ := flexos.AttackByName(attackName)
	if err := checkRemeasure(last, e.seed, flexos.MeasureAttack(att, flexos.MeasureScenario(sc))); err != nil {
		e.chk.fail("%v", err)
	}
}

// splitmix is splitmix64: a small seeded generator whose stream is
// fixed by its definition, so inputs depend on the seed alone.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }
