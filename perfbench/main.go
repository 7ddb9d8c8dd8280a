// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against the program as users run it — the
// flexos-explore and flexos-serve binaries, and the public flexos API
// for the synthetic space — checks every answer against an oracle the
// benchmark computes itself, and prints, as the last line of standard
// output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is traced instead: the benchmark times calls into each layer's
// public functions from its own files and reports per-layer metrics.
//
// Usage (from the repository root, after run.sh built the binaries):
//
//	bash perfbench/run.sh --workload attack-sweep --seed 1 --seconds 10 --trace 0
//
// Workloads: attack-sweep, synth-10k, cluster-replay (see README.md).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env carries one invocation's settings and the resources it must
// release on every exit path.
type env struct {
	root    string        // checkout root
	bin     string        // directory holding the built program binaries
	tmp     string        // per-invocation scratch directory, removed at exit
	seed    int64         // input seed
	seconds time.Duration // measuring time of the timed phase
	procs   *procSet      // every program process started
	acct    *accounting   // attempted / failed per operation class
	chk     *checker      // output-check failures
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "attack-sweep | synth-10k | cluster-replay")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measuring time of the timed phase, in seconds")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()

	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	// The benchmark runs from the checkout root, where run.sh built the
	// binaries into .bench_build.
	abs, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	base := filepath.Join(abs, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e := &env{
		root: abs, bin: filepath.Join(base, "bin"), tmp: tmp,
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		procs: &procSet{}, acct: newAccounting(), chk: &checker{},
	}
	// Interrupts cancel ctx; every step returns, and the deferred
	// cleanup stops the daemons and removes the scratch directory.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	defer stop()
	defer e.cleanup()

	var res *result
	switch {
	case *traced == 1:
		res, err = traceRun(ctx, e, *workload)
	case *workload == "attack-sweep":
		res, err = attackSweep(ctx, e)
	case *workload == "synth-10k":
		res, err = synth10k(ctx, e)
	case *workload == "cluster-replay":
		res, err = clusterReplay(ctx, e)
	default:
		err = fmt.Errorf("unknown workload %q (want attack-sweep, synth-10k or cluster-replay)", *workload)
	}
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e.acct.print(os.Stdout)
	for _, f := range e.chk.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	res.Correct = len(e.chk.failures) == 0
	res.Attempted, res.Failed = e.acct.totals()
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// cleanup stops every program process still running and removes the
// scratch directory.
func (e *env) cleanup() {
	e.procs.stopAll()
	os.RemoveAll(e.tmp)
}

// dir makes a fresh directory under the invocation's scratch space.
func (e *env) dir(prefix string) (string, error) {
	return os.MkdirTemp(e.tmp, prefix)
}

// checker collects output-check failures. The checks run outside the
// timed regions; a failure makes the run report correct=false.
type checker struct{ failures []string }

func (c *checker) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// errFailed marks an operation that ran but failed (as opposed to a
// benchmark fault, which aborts the run).
var errFailed = errors.New("operation failed")

// opClass is one line of the per-run accounting.
type opClass struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// accounting counts attempted and failed operations per class, plus
// free-form notes such as generator lateness.
type accounting struct {
	classes map[string]*opClass
	notes   map[string]any
}

func newAccounting() *accounting {
	return &accounting{classes: map[string]*opClass{}, notes: map[string]any{}}
}

func (a *accounting) op(class string, err error) {
	c, ok := a.classes[class]
	if !ok {
		c = &opClass{}
		a.classes[class] = c
	}
	c.Attempted++
	if err != nil {
		c.Failed++
	}
}

func (a *accounting) totals() (attempted, failed int) {
	for _, c := range a.classes {
		attempted += c.Attempted
		failed += c.Failed
	}
	return
}

// print writes the accounting as one JSON line ahead of the result.
func (a *accounting) print(w io.Writer) {
	doc := map[string]any{"operations": a.classes}
	if len(a.notes) > 0 {
		doc["notes"] = a.notes
	}
	b, _ := json.Marshal(doc) // maps of ints, floats and strings always marshal
	fmt.Fprintf(w, "accounting %s\n", b)
}

// median returns the middle value (mean of the middle two); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (the definition the
// program's own samplers use).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s)) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mib(bytes []float64) []float64 {
	out := make([]float64, len(bytes))
	for i, b := range bytes {
		out[i] = b / (1 << 20)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
