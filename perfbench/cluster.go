package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flexos"
	"flexos/internal/cli"
	"flexos/internal/serve"
	"flexos/internal/trace"
)

// The cluster replay: a coordinator and two workers serve a diurnal
// trace whose every distinct request was answered once in set-up, so
// each timed request is a memo hit.
const (
	// openRate is the open-loop arrival rate in requests per second,
	// fixed so that every commit is driven at the same load. On the
	// 2-core x86-64 reference box the closed loop completes 200–300
	// req/s as the host's speed drifts; 100 req/s keeps the fleet under
	// about half busy in the fast state and under three quarters in the
	// slowest seen, where queueing would otherwise swamp the median.
	openRate = 100
	// minReplay is the least number of requests each phase replays.
	minReplay = 1000
	// replaySegments is how many consecutive pieces the schedule is
	// replayed in, each first open-loop and then closed-loop, so that
	// both phases sample the whole timed window.
	replaySegments = 4
	// sliceRates is how many consecutive slices of each closed-loop
	// segment the throughput is measured over; the run reports the
	// median over all slices, so a short stall on the host moves one
	// slice, not the figure.
	sliceRates = 2
	// replayConns is the number of connections (and requests in flight).
	replayConns = 2
	// clusterSetups is how many fleets one run starts and warms;
	// setup_s is the median of their set-up times, peak_rss_mib the
	// highest of their summed high-water marks (a worker's peak RSS
	// swings between about 170 and 390 MiB with the garbage
	// collector's timing, so one fleet's is no steady figure).
	clusterSetups = 5
	// diurnalMeanRate is DiurnalSpec's mean arrival rate in trace
	// time (2/5 at 1/s, 2/5 at 2/s, 1/5 at 3/s).
	diurnalMeanRate = 1.8
)

// fleet is one coordinator with its two workers.
type fleet struct {
	coord  string // coordinator base URL
	procs  []*proc
	client *cli.Client
	setup  time.Duration
}

// replaySchedule synthesizes the diurnal trace sized to about n
// requests and re-times it at the open-loop rate.
func replaySchedule(seed int64, n int) ([]trace.Scheduled, error) {
	durMs := int64(float64(n) / diurnalMeanRate * 1000)
	tr, err := trace.Synthesize(trace.DiurnalSpec(seed, durMs))
	if err != nil {
		return nil, err
	}
	return trace.BuildSchedule(tr, trace.ScheduleOpts{Rate: openRate}), nil
}

// distinctRequests lists the schedule's distinct requests in first
// appearance order, keyed by their canonical encoding.
func distinctRequests(sched []trace.Scheduled) ([]cli.Request, map[string]int) {
	var reqs []cli.Request
	index := map[string]int{}
	for _, s := range sched {
		k := string(s.Request.Encode())
		if _, ok := index[k]; !ok {
			index[k] = len(reqs)
			reqs = append(reqs, s.Request)
		}
	}
	return reqs, index
}

func newClient(base string) *cli.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = replayConns
	return &cli.Client{BaseURL: base, HTTPClient: &http.Client{Transport: tr}, Retry: cli.DefaultRetry}
}

// startFleet starts a coordinator and two workers on free ports with
// fresh stores, waits until both workers have joined, and warms the
// fleet by sending each distinct request once, one at a time.
func startFleet(ctx context.Context, e *env, distinct []cli.Request) (*fleet, error) {
	serveBin := filepath.Join(e.bin, "flexos-serve")
	ports := make([]int, 3)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
	}
	dirs := make([]string, 3)
	for i := range dirs {
		d, err := e.dir("serve-store-")
		if err != nil {
			return nil, err
		}
		dirs[i] = d
	}
	f := &fleet{coord: fmt.Sprintf("http://127.0.0.1:%d", ports[0])}
	f.client = newClient(f.coord)
	t0 := time.Now()
	p, err := e.procs.start(serveBin, "-addr", fmt.Sprintf("127.0.0.1:%d", ports[0]), "-coordinator", "-cache", dirs[0])
	if err != nil {
		return nil, err
	}
	f.procs = append(f.procs, p)
	for i := 1; i < 3; i++ {
		self := fmt.Sprintf("http://127.0.0.1:%d", ports[i])
		p, err := e.procs.start(serveBin, "-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-join", f.coord, "-advertise", self, "-cache", dirs[i])
		if err != nil {
			f.stop(e)
			return nil, err
		}
		f.procs = append(f.procs, p)
	}
	if err := f.waitJoined(ctx, 2); err != nil {
		f.stop(e)
		return nil, err
	}
	for _, req := range distinct {
		_, err := f.client.Explore(ctx, req)
		e.acct.op("warmup_requests", err)
		if err != nil {
			f.stop(e)
			return nil, fmt.Errorf("warm-up %s: %w", req.Encode(), err)
		}
	}
	f.setup = time.Since(t0)
	return f, nil
}

// waitJoined polls the coordinator until n workers are alive.
func (f *fleet) waitJoined(ctx context.Context, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st, err := f.stats(ctx); err == nil && st.Cluster != nil && st.Cluster.Alive >= n {
			return nil
		}
		for _, p := range f.procs {
			select {
			case <-p.done:
				return fmt.Errorf("daemon exited during start-up: %v: %s", p.err, lastLine(p.stderr.String()))
			default:
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	return errors.New("cluster: workers did not join within 30s")
}

// stats reads the coordinator's /statsz.
func (f *fleet) stats(ctx context.Context) (*serve.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.coord+"/statsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// stop shuts the fleet down and returns each daemon's peak RSS in
// bytes, coordinator first.
func (f *fleet) stop(e *env) ([]float64, error) {
	rss := make([]float64, len(f.procs))
	var errs []error
	for i := len(f.procs) - 1; i >= 0; i-- { // workers first
		r, err := f.procs[i].stop(15 * time.Second)
		rss[i] = float64(r)
		if err != nil {
			errs = append(errs, err)
		}
	}
	e.procs.forget(f.procs...)
	return rss, errors.Join(errs...)
}

// replayOutcome is one replay phase's measurements.
type replayOutcome struct {
	lat     []float64 // ms per completed request
	done    []float64 // seconds from the segment start to each request's completion
	seg     []int     // the segment each request was replayed in
	late    []float64 // ms the generator issued after the due time (open loop)
	hashes  []uint64  // FNV-1a of each response report, in schedule order
	failed  []bool
	retries int64
}

// reqIDKey carries a replayed request's id (its schedule index + 1) in
// its context, for the traced run's transport to tag.
type reqIDKey struct{}

// replay sends the schedule over conns connections. Open loop issues
// each request at its due time and times it from then; closed loop
// sends the next request as soon as a connection is free.
func replay(ctx context.Context, c *cli.Client, sched []trace.Scheduled, closed bool, conns int) replayOutcome {
	out := replayOutcome{
		lat: make([]float64, len(sched)), done: make([]float64, len(sched)), hashes: make([]uint64, len(sched)), failed: make([]bool, len(sched)),
	}
	r0 := c.Retries()
	jobs := make(chan int, len(sched)) // holds the whole schedule: the generator never waits for a connection
	due := make([]time.Time, len(sched))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var i int
				if closed {
					i = int(next.Add(1) - 1)
					if i >= len(sched) {
						return
					}
				} else {
					var ok bool
					if i, ok = <-jobs; !ok {
						return
					}
				}
				t0 := time.Now()
				if !closed {
					t0 = due[i]
				}
				req := sched[i].Request
				resp, err := c.Explore(context.WithValue(ctx, reqIDKey{}, int64(i+1)), req)
				out.lat[i] = ms(time.Since(t0))
				out.done[i] = time.Since(start).Seconds()
				if err != nil {
					out.failed[i] = true
					out.hashes[i] = fnvOf("error")
				} else {
					out.hashes[i] = fnvOf(resp.Report)
				}
			}
		}()
	}
	if !closed {
		out.late = make([]float64, 0, len(sched))
	dispatch:
		for i, s := range sched {
			due[i] = start.Add(time.Duration(s.AtMs) * time.Millisecond)
			if d := time.Until(due[i]); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					break dispatch
				}
			}
			out.late = append(out.late, ms(time.Since(due[i])))
			jobs <- i
		}
		close(jobs)
	}
	wg.Wait()
	out.retries = c.Retries() - r0
	return out
}

func fnvOf(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	return h.Sum64()
}

// responseSum digests per-request hashes in schedule order, the way
// flexos-loadgen's response_sum does.
func responseSum(hashes []uint64) string {
	sum := fnv.New64a()
	for _, h := range hashes {
		fmt.Fprintf(sum, "%016x\n", h)
	}
	return fmt.Sprintf("%016x", sum.Sum64())
}

// localReports answers each distinct request in-process, the way a
// local flexos-explore run would print it, and counts the
// configurations each report decides.
func localReports(ctx context.Context, distinct []cli.Request) ([]string, []int, error) {
	memo := flexos.NewExploreMemo()
	reports := make([]string, len(distinct))
	totals := make([]int, len(distinct))
	for i, req := range distinct {
		q, info, err := req.Build()
		if err != nil {
			return nil, nil, err
		}
		res, err := q.Memo(memo).Run(ctx)
		noFeasible := errors.Is(err, flexos.ErrNoFeasible)
		if err != nil && !noFeasible {
			return nil, nil, err
		}
		reports[i] = cli.RenderReport(info.Title, res, info.Constraints, info.ScenarioMode, req.Pareto, req.Verbose, noFeasible)
		totals[i] = res.Total
	}
	return reports, totals, nil
}

// expectedSum is the response digest the schedule should produce,
// computed from local reports.
func expectedSum(sched []trace.Scheduled, index map[string]int, reports []string) string {
	hashes := make([]uint64, len(sched))
	for i, s := range sched {
		hashes[i] = fnvOf(reports[index[string(s.Request.Encode())]])
	}
	return responseSum(hashes)
}

func clusterReplay(ctx context.Context, e *env) (*result, error) {
	sched, err := replaySchedule(e.seed, max(minReplay, int(openRate*e.seconds.Seconds()/2)))
	if err != nil {
		return nil, err
	}
	distinct, index := distinctRequests(sched)

	// Set-up, repeated: a fresh fleet each time; the last one serves
	// the timed phases.
	var setups, rss []float64
	var daemonRSS [][]float64 // MiB per daemon, coordinator first, per fleet
	var f *fleet
	for i := 0; i < clusterSetups; i++ {
		if f != nil {
			r, err := f.stop(e)
			if err != nil {
				return nil, err
			}
			rss = append(rss, sum(r))
			daemonRSS = append(daemonRSS, mib(r))
		}
		if f, err = startFleet(ctx, e, distinct); err != nil {
			return nil, err
		}
		setups = append(setups, f.setup.Seconds())
	}

	open, closed := replayInterleaved(ctx, f.client, sched)
	r, err := f.stop(e)
	if err != nil {
		return nil, err
	}
	rss = append(rss, sum(r))
	daemonRSS = append(daemonRSS, mib(r))
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	reports, totals, err := localReports(ctx, distinct)
	if err != nil {
		return nil, fmt.Errorf("local reports: %w", err)
	}
	want := expectedSum(sched, index, reports)
	var openLat []float64
	configs := make([]float64, len(sched))
	for i := range sched {
		for _, o := range []*replayOutcome{&open, &closed} {
			var err error
			if o.failed[i] {
				err = errFailed
			}
			e.acct.op("replayed_requests", err)
		}
		if !open.failed[i] {
			openLat = append(openLat, open.lat[i])
		}
		configs[i] = float64(totals[index[string(sched[i].Request.Encode())]])
	}
	for name, o := range map[string]replayOutcome{"open-loop": open, "closed-loop": closed} {
		if got := responseSum(o.hashes); got != want {
			e.chk.fail("%s replay: response_sum %s, local reports give %s", name, got, want)
		}
	}
	noteLateness(e, open, closed)
	e.acct.notes["open_p99_ms"] = percentile(openLat, 99)
	e.acct.notes["daemon_rss_mib"] = daemonRSS

	return &result{Metrics: map[string]metric{
		"setup_s":        {median(setups), "s"},
		"configs_per_s":  {sliceRate(closed, configs), "1/s"},
		"latency_p50_ms": {median(openLat), "ms"},
		"throughput_rps": {sliceRate(closed, nil), "1/s"},
		"peak_rss_mib":   {slices.Max(rss) / (1 << 20), "MiB"},
	}}, nil
}

// replayInterleaved replays the schedule in replaySegments pieces,
// each open-loop (re-timed to start at once) and then closed-loop.
func replayInterleaved(ctx context.Context, c *cli.Client, sched []trace.Scheduled) (open, closed replayOutcome) {
	n := len(sched)
	for _, o := range []*replayOutcome{&open, &closed} {
		*o = replayOutcome{lat: make([]float64, n), done: make([]float64, n), seg: make([]int, n),
			hashes: make([]uint64, n), failed: make([]bool, n)}
	}
	for k := 0; k < replaySegments; k++ {
		lo, hi := k*n/replaySegments, (k+1)*n/replaySegments
		seg := append([]trace.Scheduled(nil), sched[lo:hi]...)
		for i := range seg {
			seg[i].AtMs -= sched[lo].AtMs
		}
		open.merge(replay(ctx, c, seg, false, replayConns), lo, k)
		closed.merge(replay(ctx, c, seg, true, replayConns), lo, k)
	}
	return open, closed
}

// merge copies one segment's outcome into the whole schedule's.
func (o *replayOutcome) merge(s replayOutcome, lo, k int) {
	copy(o.lat[lo:], s.lat)
	copy(o.done[lo:], s.done)
	copy(o.hashes[lo:], s.hashes)
	copy(o.failed[lo:], s.failed)
	for i := range s.lat {
		o.seg[lo+i] = k
	}
	o.late = append(o.late, s.late...)
	o.retries += s.retries
}

// sliceRate is the median, over sliceRates consecutive slices of each
// segment's completions, of the work completed per second: one unit
// per request, or the given weight.
func sliceRate(o replayOutcome, weight []float64) float64 {
	var rates []float64
	for k := 0; k < replaySegments; k++ {
		var idx []int
		for i, s := range o.seg {
			if s == k {
				idx = append(idx, i)
			}
		}
		sort.Slice(idx, func(a, b int) bool { return o.done[idx[a]] < o.done[idx[b]] })
		size := len(idx) / sliceRates
		prev := 0.0
		for c := 0; c < sliceRates; c++ {
			work := 0.0
			for _, i := range idx[c*size : (c+1)*size] {
				if weight == nil {
					work++
				} else {
					work += weight[i]
				}
			}
			end := o.done[idx[(c+1)*size-1]]
			rates = append(rates, work/(end-prev))
			prev = end
		}
	}
	return median(rates)
}

// lateLimitMs is how late (p99) the open-loop generator may issue
// before a run reports that it fell behind its schedule.
const lateLimitMs = 2.0

func noteLateness(e *env, open, closed replayOutcome) {
	p99 := percentile(open.late, 99)
	e.acct.notes["generator_late_p50_ms"] = median(open.late)
	e.acct.notes["generator_late_p99_ms"] = p99
	e.acct.notes["generator_late_max_ms"] = percentile(open.late, 100)
	e.acct.notes["retries"] = open.retries + closed.retries
	e.acct.notes["open_rate_rps"] = openRate
	if p99 > lateLimitMs {
		e.acct.notes["generator_fell_behind"] = true
		fmt.Fprintf(os.Stderr, "perfbench: open-loop generator fell behind: p99 lateness %.2f ms > %.1f ms\n", p99, lateLimitMs)
	}
}
