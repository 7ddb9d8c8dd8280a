package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flexos"
	redisapp "flexos/internal/apps/redis"
	"flexos/internal/cli"
	"flexos/internal/cluster"
	"flexos/internal/explore"
	"flexos/internal/machine"
	"flexos/internal/mem"
	"flexos/internal/netstack"
	"flexos/internal/serve"
	"flexos/internal/store"
)

// The traced run times calls into each layer's public functions from
// the benchmark's own files: spans around the calls, counts at the
// same boundaries. It hosts the exploration and the daemons
// in-process so that it can wrap measure functions, the store, the
// daemons' HTTP handlers and the coordinator's transport. The
// end-to-end metrics always come from the untraced run.
const (
	// layerSample is how many configurations the layer probes measure
	// one by one (mem, core, scenario, attack).
	layerSample = 8
	// tracedRequeries is how many warm re-queries time store loads.
	tracedRequeries = 5
	// tracedRounds is how many times each synthetic sweep mode runs,
	// traced, each round followed by one untraced flat sweep.
	tracedRounds = 7
	// tracedReplay is how many trace requests the traced cluster pass
	// replays, one connection at a time, so that each request's spans
	// nest by time.
	tracedReplay = 400
	// defaultMemBytes is the simulated address-space size an image gets
	// when its spec names none (core's default).
	defaultMemBytes = 32 << 20
)

// span is one timed call at a layer boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: none
	Req    int64  `json:"req,omitempty"`    // request id shared by one request's spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; write puts them in a file at the end.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, req int64, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// time runs fn inside a span.
func (t *tracer) time(name string, parent int, fn func()) int {
	s := t.now()
	fn()
	return t.add(name, parent, 0, s, t.now())
}

// get returns the span with the given id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// named returns a copy of the spans with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// covered is the length of [lo, hi) that the union of the spans covers.
func covered(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		total += v[1] - max(v[0], end)
		end = v[1]
	}
	return total
}

func totalDur(spans []span) float64 {
	var t int64
	for _, s := range spans {
		t += s.dur()
	}
	return float64(t)
}

func meanDur(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	return totalDur(spans) / float64(len(spans))
}

// layerMetrics collects per-layer figures by name.
type layerMetrics map[string]metric

func (m layerMetrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

func traceRun(ctx context.Context, e *env, workload string) (*result, error) {
	switch workload {
	case "attack-sweep", "synth-10k", "cluster-replay":
	default:
		return nil, fmt.Errorf("unknown workload %q (want attack-sweep, synth-10k or cluster-replay)", workload)
	}
	tr := &tracer{t0: time.Now()}
	m := layerMetrics{}
	// Every traced run reports every layer, so each pass runs whatever
	// the workload; the seed picks the inputs.
	if err := traceAttack(ctx, e, tr, m); err != nil {
		return nil, fmt.Errorf("traced attack pass: %w", err)
	}
	if err := traceSynth(ctx, e, tr, m); err != nil {
		return nil, fmt.Errorf("traced synthetic pass: %w", err)
	}
	if err := traceCluster(ctx, e, tr, m); err != nil {
		return nil, fmt.Errorf("traced cluster pass: %w", err)
	}
	path := filepath.Join(e.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return &result{Metrics: m}, nil
}

// timedBacking wraps the result store with spans on every load and
// append, as the engine's persistent memo tier.
type timedBacking struct {
	st *store.Store
	tr *tracer
}

func (b *timedBacking) Load(key string) (flexos.Metrics, bool) {
	s := b.tr.now()
	m, ok := b.st.Load(key)
	b.tr.add("store.load", 0, 0, s, b.tr.now())
	return m, ok
}

func (b *timedBacking) Store(key string, m flexos.Metrics) {
	s := b.tr.now()
	b.st.Store(key, m)
	b.tr.add("store.append", 0, 0, s, b.tr.now())
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, ent := range ents {
		fi, err := ent.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// attackRequest is the cold sweep as a wire request.
func attackRequest(budgets []string, exhaustive bool) cli.Request {
	return cli.Request{Scenario: attackScenario, Attack: attackName, Profile: attackProfile,
		Budgets: budgets, Exhaustive: exhaustive, Workers: 2}
}

// traceAttack runs the cold attack sweep in-process through a timed
// store, then warm re-queries, then probes mem, core, scenario and
// attack one configuration at a time.
func traceAttack(ctx context.Context, e *env, tr *tracer, m layerMetrics) error {
	sc, _ := flexos.ScenarioByName(attackScenario)
	att, _ := flexos.AttackByName(attackName)
	dir, err := e.dir("trace-store-")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	creq := attackRequest([]string{attackFloor}, false)
	q, info, err := creq.Build()
	if err != nil {
		st.Close()
		return err
	}
	base := flexos.MeasureAttack(att, flexos.MeasureScenario(sc))
	q.Measure(func(c *flexos.ExploreConfig) (flexos.Metrics, error) {
		s := tr.now()
		v, err := base(c)
		tr.add("explore.measure", 0, 0, s, tr.now())
		return v, err
	}).Memo(explore.NewBackedMemo(&timedBacking{st: st, tr: tr}))
	var res *flexos.ExploreResult
	tr.time("explore.run", 0, func() { res, err = q.Run(ctx) })
	noFeasible := errors.Is(err, flexos.ErrNoFeasible)
	if noFeasible {
		err = nil // a complete answer: nothing meets the floors
	}
	e.acct.op("traced_sweeps", err)
	if err != nil {
		st.Close()
		return err
	}
	tr.time("store.flush", 0, func() { err = st.Flush() })
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	report := cli.RenderReport(info.Title, res, info.Constraints, info.ScenarioMode, false, false, noFeasible)
	o, err := loadAttackStore(dir)
	if err != nil {
		return err
	}
	if err := checkReport("traced sweep", report, o, []string{attackFloor}); err != nil {
		e.chk.fail("%v", err)
	}
	measures := tr.named("explore.measure")
	m.set("explore.measure_calls", float64(len(measures)), "count")
	m.set("explore.measure_busy_ms", totalDur(measures)/1e6, "ms")
	m.set("store.append_ms", totalDur(tr.named("store.append"))/1e6, "ms")
	m.set("store.flush_ms", meanDur(tr.named("store.flush"))/1e6, "ms")
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	m.set("store.bytes", float64(size), "B")

	// Warm: open the filled store and re-query through it; every memo
	// miss loads from the store.
	var warm *store.Store
	tr.time("store.open", 0, func() { warm, err = store.OpenReadOnly(dir) })
	if err != nil {
		return err
	}
	defer warm.Close()
	loadsBefore := len(tr.named("store.load"))
	for i, rq := range requeries(e.seed)[:tracedRequeries] {
		creq := attackRequest(rq.budgets, true)
		q, info, err := creq.Build()
		if err != nil {
			return err
		}
		q.Memo(explore.NewBackedMemo(&timedBacking{st: warm, tr: tr}))
		res, err := q.Run(ctx)
		noFeasible := errors.Is(err, flexos.ErrNoFeasible)
		if noFeasible {
			err = nil
		}
		e.acct.op("traced_requeries", err)
		if err != nil {
			return err
		}
		report := cli.RenderReport(info.Title, res, info.Constraints, info.ScenarioMode, false, false, noFeasible)
		if err := checkReport(fmt.Sprintf("traced re-query %d", i), report, o, rq.budgets); err != nil {
			e.chk.fail("%v", err)
		}
	}
	m.set("store.open_ms", meanDur(tr.named("store.open"))/1e6, "ms")
	loads := tr.named("store.load")[loadsBefore:]
	m.set("store.load_us", meanDur(loads)/1e3, "us")

	return probeLayers(e, tr, m, o)
}

// probeLayers measures one configuration at a time: the address space
// an image maps, the image build, the workload run and the attack
// score, with the allocations each makes.
func probeLayers(e *env, tr *tracer, m layerMetrics, o *attackOracle) error {
	sc, _ := flexos.ScenarioByName(attackScenario)
	att, _ := flexos.AttackByName(attackName)
	measure := flexos.MeasureAttack(att, flexos.MeasureScenario(sc))
	r := splitmix{s: uint64(e.seed) ^ 0x1a7e5}
	var (
		asNs, buildNs, runNs, survNs, perCross []float64
		bytesPer, allocsPer, crossings         []float64
		ms0, ms1                               runtime.MemStats
	)
	for k := 0; k < layerSample; k++ {
		c := o.cfgs[r.intn(len(o.cfgs))]
		spec := c.Spec(flexos.TCBLibs())

		var as *mem.AddrSpace
		id := tr.time("mem.addrspace", 0, func() {
			as = mem.NewAddrSpace("probe", defaultMemBytes, machine.New(machine.DefaultCosts()))
		})
		runtime.KeepAlive(as)
		asNs = append(asNs, float64(tr.get(id).dur()))

		cat, _ := redisapp.Catalog()
		var berr error
		id = tr.time("core.build", 0, func() { _, berr = flexos.Build(cat, spec) })
		if berr != nil {
			return berr
		}
		buildNs = append(buildNs, float64(tr.get(id).dur()))

		var rerr error
		runtime.ReadMemStats(&ms0)
		id = tr.time("scenario.run", 0, func() { _, rerr = sc.Run(spec) })
		runtime.ReadMemStats(&ms1)
		if rerr != nil {
			return rerr
		}
		runNs = append(runNs, float64(tr.get(id).dur()))
		allocsPer = append(allocsPer, float64(ms1.Mallocs-ms0.Mallocs))

		n, loop, err := crossingProbe(spec)
		if err != nil {
			return err
		}
		crossings = append(crossings, float64(n))
		if n > 0 {
			perCross = append(perCross, float64(loop)/float64(n))
		}

		const reps = 200
		s := tr.now()
		for i := 0; i < reps; i++ {
			_ = att.Survival(c)
		}
		survNs = append(survNs, float64(tr.now()-s)/reps)

		runtime.ReadMemStats(&ms0)
		_, merr := measure(c)
		runtime.ReadMemStats(&ms1)
		if merr != nil {
			return merr
		}
		bytesPer = append(bytesPer, float64(ms1.TotalAlloc-ms0.TotalAlloc))
	}
	m.set("mem.addrspace_us", median(asNs)/1e3, "us")
	m.set("mem.bytes_per_measure", median(bytesPer), "B")
	m.set("core.build_ms", median(buildNs)/1e6, "ms")
	m.set("core.crossings", median(crossings), "count")
	m.set("core.ns_per_crossing", median(perCross), "ns")
	m.set("scenario.run_ms", median(runNs)/1e6, "ms")
	m.set("scenario.allocs_per_run", median(allocsPer), "count")
	m.set("attack.survival_us", median(survNs)/1e3, "us")
	return nil
}

// crossingProbe builds the image and serves the redis GET loop on it
// through core's Ctx.Call, returning the gate crossings the loop makes
// and its wall time in ns.
func crossingProbe(spec flexos.ImageSpec) (crossings uint64, loopNs int64, err error) {
	const ops, keys = 240, 64
	cat, _ := redisapp.Catalog()
	img, err := flexos.Build(cat, spec)
	if err != nil {
		return 0, 0, err
	}
	ctx, err := img.NewContext("probe", redisapp.Name)
	if err != nil {
		return 0, 0, err
	}
	sv, err := ctx.Call(redisapp.Name, "setup", keys)
	if err != nil {
		return 0, 0, err
	}
	sock, ok := sv.(int)
	if !ok {
		return 0, 0, fmt.Errorf("redis setup returned %T, want a socket", sv)
	}
	for i := 0; i < ops; i++ {
		if _, err := ctx.Call(netstack.Name, "rx_enqueue", sock, []byte(fmt.Sprintf("GET key%d\r\n", i%keys))); err != nil {
			return 0, 0, err
		}
	}
	c0, t0 := img.Crossings(), time.Now()
	for i := 0; i < ops; i++ {
		if _, err := ctx.Call(redisapp.Name, "serve_get"); err != nil {
			return 0, 0, err
		}
	}
	return img.Crossings() - c0, int64(time.Since(t0)), nil
}

// traceSynth runs each engine mode over the synthetic space with every
// measure call timed, and reports engine self time: wall minus the
// part the measure calls cover.
func traceSynth(ctx context.Context, e *env, tr *tracer, m layerMetrics) error {
	space := flexos.SynthSpace(e.seed, synthN)
	floor := flexos.SynthQuantileThroughput(e.seed, space, synthQ)
	want, err := synthSafest(space, e.seed, floor)
	if err != nil {
		return err
	}
	base := flexos.SynthMeasure(e.seed)
	walls := map[string][]float64{}
	var self, overhead []float64
	for round := 0; round < tracedRounds; round++ {
		for _, mode := range synthModes {
			// Measure spans go to a preallocated slice, not through the
			// tracer's lock, so that tracing the engine's hottest call
			// costs two clock reads.
			iv := make([]span, len(space))
			var n atomic.Int64
			measure := func(c *flexos.ExploreConfig) (flexos.Metrics, error) {
				s := tr.now()
				v, err := base(c)
				if i := n.Add(1) - 1; int(i) < len(iv) {
					iv[i] = span{Name: "explore.measure", Start: s, End: tr.now()}
				}
				return v, err
			}
			q := synthQuery(space, e.seed, floor, mode).Measure(measure)
			s := tr.now()
			r, err := runSynth(ctx, q, floor)
			end := tr.now()
			e.acct.op("traced_sweeps", err)
			if err != nil {
				return err
			}
			parent := tr.add("explore."+mode.name, 0, 0, s, end)
			calls := iv[:min(int(n.Load()), len(iv))]
			for _, c := range calls {
				tr.add(c.Name, parent, 0, c.Start, c.End)
			}
			walls[mode.name] = append(walls[mode.name], float64(end-s))
			if mode.name == "flat" {
				self = append(self, float64(end-s-covered(calls, s, end)))
			}
			if round == 0 {
				if err := checkSynthRun("traced "+mode.name, r, want); err != nil {
					e.chk.fail("%v", err)
				}
				if mode.name == "pruned" {
					m.set("explore.evaluated", float64(r.res.Evaluated), "count")
					pruned := 0
					for _, x := range r.res.Measurements {
						if x.Pruned {
							pruned++
						}
					}
					m.set("explore.pruned", float64(pruned), "count")
				}
			}
		}
		// The same flat sweep untraced, paired with this round's traced
		// one so that the host's drift cancels, gives the tracing
		// overhead.
		s := time.Now()
		_, err := runSynth(ctx, synthQuery(space, e.seed, floor, synthModes[0]), floor)
		e.acct.op("traced_sweeps", err)
		if err != nil {
			return err
		}
		untraced := float64(time.Since(s))
		traced := walls["flat"][len(walls["flat"])-1]
		overhead = append(overhead, 100*(traced-untraced)/untraced)
	}
	for _, mode := range synthModes {
		m.set("explore."+mode.name+"_ms", median(walls[mode.name])/1e6, "ms")
	}
	m.set("explore.self_ms", median(self)/1e6, "ms")
	m.set("trace.overhead_pct", median(overhead), "%")
	return nil
}

// timedTransport is the coordinator's worker transport: one span per
// call, ended when the response body is closed, and a copy of the
// first shard response bodies for the codec probe.
type timedTransport struct {
	base http.RoundTripper
	tr   *tracer
	mu   sync.Mutex
	kept [][]byte
}

const keepBodies = 8

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "cluster.probe"
	if req.URL.Path == cli.ExplorePath {
		name = "cluster.shard_call"
	}
	s := t.tr.now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.add(name, 0, 0, s, t.tr.now())
		return nil, err
	}
	body := &timedBody{rc: resp.Body, done: func(b []byte) {
		t.tr.add(name, 0, 0, s, t.tr.now())
		if b != nil {
			t.mu.Lock()
			if len(t.kept) < keepBodies {
				t.kept = append(t.kept, b)
			}
			t.mu.Unlock()
		}
	}}
	if name == "cluster.shard_call" {
		body.buf = &bytes.Buffer{}
	}
	resp.Body = body
	return resp, nil
}

type timedBody struct {
	rc   io.ReadCloser
	buf  *bytes.Buffer
	once sync.Once
	done func([]byte)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if b.buf != nil {
		b.buf.Write(p[:n])
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.rc.Close()
	b.once.Do(func() {
		var kept []byte
		if b.buf != nil {
			kept = b.buf.Bytes()
		}
		b.done(kept)
	})
	return err
}

// timedHandler wraps a daemon's handler with a span per exploration
// request, tagged with the replayed request's id when it has one.
func timedHandler(name string, h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != cli.ExplorePath {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get("X-Perfbench-Req"), 10, 64)
		s := tr.now()
		h.ServeHTTP(w, r)
		tr.add(name, 0, req, s, tr.now())
	})
}

// taggingTransport puts the replayed request's id on the wire.
type taggingTransport struct{ base http.RoundTripper }

func (t taggingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(reqIDKey{}).(int64); ok {
		req = req.Clone(req.Context())
		req.Header.Set("X-Perfbench-Req", strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(req)
}

// daemon is one in-process flexos-serve.
type daemon struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{}
}

func startDaemon(l net.Listener, srv *serve.Server, h http.Handler) *daemon {
	d := &daemon{srv: srv, http: &http.Server{Handler: h}, url: "http://" + l.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.http.Serve(l) // returns http.ErrServerClosed on Shutdown
	}()
	return d
}

func (d *daemon) stop() error {
	d.srv.Abort()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	<-d.done
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// traceCluster hosts a coordinator and two workers in-process with
// timed handlers and a timed coordinator transport, warms them, and
// replays part of the trace one request at a time at the open-loop
// rate, then closed-loop on two connections.
func traceCluster(ctx context.Context, e *env, tr *tracer, m layerMetrics) (err error) {
	var ls [3]net.Listener
	for i := range ls {
		if ls[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, l := range ls[:i] {
				l.Close()
			}
			return err
		}
	}
	var daemons []*daemon
	defer func() {
		for _, d := range daemons {
			if serr := d.stop(); err == nil {
				err = serr
			}
		}
	}()
	transport := &timedTransport{base: http.DefaultTransport.(*http.Transport).Clone(), tr: tr}
	coordURL := "http://" + ls[0].Addr().String()
	var srvs [3]*serve.Server
	for i := range srvs {
		dir, derr := e.dir("trace-serve-")
		if derr != nil {
			return derr
		}
		cfg := serve.Config{CacheDir: dir, SelfURL: "http://" + ls[i].Addr().String()}
		name := "serve.worker"
		if i == 0 {
			cfg.Cluster = cluster.New(cluster.Config{HTTPClient: &http.Client{Transport: transport}})
			name = "serve.coordinator"
		}
		if srvs[i], err = serve.New(cfg); err != nil {
			for _, l := range ls[i:] {
				l.Close()
			}
			return err
		}
		daemons = append(daemons, startDaemon(ls[i], srvs[i], timedHandler(name, srvs[i], tr)))
	}
	joiner := &cli.Client{BaseURL: coordURL}
	for _, d := range daemons[1:] {
		if err := joiner.Join(ctx, d.url); err != nil {
			return err
		}
	}

	sched, err := replaySchedule(e.seed, tracedReplay)
	if err != nil {
		return err
	}
	distinct, index := distinctRequests(sched)
	base := http.DefaultTransport.(*http.Transport).Clone()
	client := &cli.Client{BaseURL: coordURL, HTTPClient: &http.Client{Transport: taggingTransport{base}}, Retry: cli.DefaultRetry}
	for _, req := range distinct {
		_, err := client.Explore(ctx, req)
		e.acct.op("traced_warmup_requests", err)
		if err != nil {
			return err
		}
	}

	before := srvs[0].Stats()
	replayStart := tr.now()
	out := replay(ctx, client, sched, false, 1)
	replayEnd := tr.now()
	after := srvs[0].Stats()
	// Then closed-loop on two connections, where identical requests
	// arriving together coalesce onto one flight.
	closed := replay(ctx, client, sched, true, replayConns)
	afterClosed := srvs[0].Stats()
	for _, o := range []replayOutcome{out, closed} {
		for i := range sched {
			var err error
			if o.failed[i] {
				err = errFailed
			}
			e.acct.op("traced_replayed_requests", err)
		}
	}

	// Local reports: the digest oracle, and the warm re-rank probe on
	// the memo they fill.
	memo := flexos.NewExploreMemo()
	reports := make([]string, len(distinct))
	var renderNs, rerankNs []float64
	for i, req := range distinct {
		q, info, err := req.Build()
		if err != nil {
			return err
		}
		res, err := q.Memo(memo).Run(ctx)
		noFeasible := errors.Is(err, flexos.ErrNoFeasible)
		if err != nil && !noFeasible {
			return err
		}
		s := tr.now()
		const reps = 20
		for k := 0; k < reps; k++ {
			reports[i] = cli.RenderReport(info.Title, res, info.Constraints, info.ScenarioMode, req.Pareto, req.Verbose, noFeasible)
		}
		renderNs = append(renderNs, float64(tr.now()-s)/reps)
		var warm []float64
		for k := 0; k < 5; k++ {
			var rerr error
			id := tr.time("explore.rerank", 0, func() { _, rerr = q.Memo(memo).Run(ctx) })
			if rerr != nil && !errors.Is(rerr, flexos.ErrNoFeasible) {
				return rerr
			}
			warm = append(warm, float64(tr.get(id).dur()))
		}
		rerankNs = append(rerankNs, median(warm))
	}
	want := expectedSum(sched, index, reports)
	for _, o := range []replayOutcome{out, closed} {
		if got := responseSum(o.hashes); got != want {
			e.chk.fail("traced replay: response_sum %s, local reports give %s", got, want)
		}
	}

	// Link each replayed request's spans: a shard call belongs to the
	// coordinator span that contains it, a worker span to the shard
	// call that contains it (one request is in flight at a time).
	tr.mu.Lock()
	var coord, calls, workers []*span
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Start < replayStart || s.Start >= replayEnd {
			continue
		}
		switch s.Name {
		case "serve.coordinator":
			coord = append(coord, s)
		case "cluster.shard_call":
			calls = append(calls, s)
		case "serve.worker":
			workers = append(workers, s)
		}
	}
	link := func(children, parents []*span) {
		for _, c := range children {
			for _, p := range parents {
				if c.Start >= p.Start && c.End <= p.End {
					c.Parent, c.Req = p.ID, p.Req
					break
				}
			}
		}
	}
	link(calls, coord)
	link(workers, calls)
	var coordSelf []float64
	for _, p := range coord {
		var kids []span
		for _, c := range calls {
			if c.Parent == p.ID {
				kids = append(kids, *c)
			}
		}
		coordSelf = append(coordSelf, float64(p.dur()-covered(kids, p.Start, p.End)))
	}
	spanMean := func(ss []*span) float64 {
		var v []span
		for _, s := range ss {
			v = append(v, *s)
		}
		return meanDur(v)
	}
	m.set("serve.coordinator_ms", spanMean(coord)/1e6, "ms")
	m.set("serve.worker_ms", spanMean(workers)/1e6, "ms")
	m.set("cluster.shard_call_ms", spanMean(calls)/1e6, "ms")
	tr.mu.Unlock()
	m.set("cluster.coordinator_self_ms", median(coordSelf)/1e6, "ms")

	reqs := float64(after.Requests - before.Requests)
	hits := float64(after.MemoHits - before.MemoHits)
	evals := float64(after.Evaluated - before.Evaluated)
	m.set("serve.coalesced_ratio", float64(afterClosed.Coalesced-after.Coalesced)/
		max(float64(afterClosed.Requests-after.Requests), 1), "ratio")
	m.set("serve.memo_hit_rate", hits/max(hits+evals, 1), "ratio")
	if after.Cluster != nil && before.Cluster != nil {
		m.set("cluster.records_per_request", float64(after.Cluster.Records-before.Cluster.Records)/max(reqs, 1), "count")
		m.set("cluster.redispatches", float64(after.Cluster.Redispatches-before.Cluster.Redispatches), "count")
		m.set("cluster.inline_runs", float64(after.Cluster.InlineRuns-before.Cluster.InlineRuns), "count")
	}
	m.set("trace.late_p99_ms", percentile(out.late, 99), "ms")
	m.set("trace.retries", float64(out.retries), "count")
	m.set("cli.render_us", median(renderNs)/1e3, "us")
	m.set("explore.rerank_ms", median(rerankNs)/1e6, "ms")
	return codecProbe(transport, m)
}

// codecProbe decodes and re-encodes the shard responses the
// coordinator received: the wire codec's cost per response.
func codecProbe(t *timedTransport, m layerMetrics) error {
	t.mu.Lock()
	bodies := t.kept
	t.mu.Unlock()
	if len(bodies) == 0 {
		return errors.New("no shard response was captured")
	}
	const reps = 20
	var dec, enc []float64
	for _, b := range bodies {
		var resp cli.Response
		s := time.Now()
		for k := 0; k < reps; k++ {
			resp = cli.Response{}
			if err := json.Unmarshal(b, &resp); err != nil {
				return fmt.Errorf("decode shard response: %w", err)
			}
		}
		dec = append(dec, float64(time.Since(s))/reps)
		s = time.Now()
		for k := 0; k < reps; k++ {
			if _, err := json.Marshal(resp); err != nil {
				return err
			}
		}
		enc = append(enc, float64(time.Since(s))/reps)
	}
	m.set("cli.response_decode_us", median(dec)/1e3, "us")
	m.set("cli.response_encode_us", median(enc)/1e3, "us")
	return nil
}
