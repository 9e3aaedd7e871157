// Command bench is secstack's benchmark: four closed-loop workloads,
// each driven from this one process by 2 goroutines or 2 connections,
// that together cover the in-process stack and the served engines. It
// prints every end-to-end metric with its unit, checks that the
// structures lost and duplicated nothing, and exits nonzero on any
// violation. README.md describes the workloads and metrics.
//
// Usage (from this directory):
//
//	go run .                          # all workloads, 45 s measured each
//	go run . -workload served-rpc     # one workload
//	go run . -quick                   # smoke: about 200 ms per workload
//	go run . -sets 2 -json out.json   # repeatability: two full sets compared
//	go run . -trace t.json            # traced run: per-layer metrics and spans
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. run.sh builds this command
// and runs it with --workload, --seed, --seconds and --trace 0|1, the
// last standing for no traced run or one.
//
// Every layer is measured from outside: by timing the benchmark's own
// calls into the layer's public functions and by reading the public
// accessors the program already has (SECStack.Metrics, the secd
// server's Metrics, runtime/metrics).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"secstack/stack"
)

// workload is one named input set. Exactly one of stack and served is
// set.
type workload struct {
	name   string
	why    string
	stack  *stackWorkload
	served *servedWorkload
}

func (w *workload) rep(rc repConfig) repResult {
	if w.stack != nil {
		return w.stack.rep(rc)
	}
	return w.served.rep(rc)
}

func (w *workload) mix() []mixEntry {
	if w.stack != nil {
		return w.stack.mix
	}
	return w.served.mix
}

var workloads = []*workload{
	{
		name: "stack-elim",
		why:  "2 explicit handles share one aggregator on 50/50 push/pop, so freezing, elimination and combining do the work",
		stack: &stackWorkload{
			opts:     []stack.Option{stack.WithAggregators(1)},
			explicit: true,
			mix:      elimMix,
			latCalls: 1, // a call takes about 1 us
		},
	},
	{
		name:  "stack-readmostly",
		why:   "handle-free calls with default options on the paper's 10%-update mix: the per-P session cache and read path, batching nearly idle",
		stack: &stackWorkload{mix: updateMix, latCalls: 8}, // a call takes about 0.1 us
	},
	{
		name:   "served-rpc",
		why:    "2 secclient connections with one op in flight each on the mixed stack/pool/funnel mix: loopback round trips dominate",
		served: &servedWorkload{mix: mixedMix},
	},
	{
		name:   "served-pipelined",
		why:    "2 raw wire connections writing bursts of 32 stack ops: secd's read, dispatch, engine and flush path dominates",
		served: &servedWorkload{mix: stackMix, pipelined: true},
	},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// repLength is the length of one measured repetition with the host probe
// after it. On a shared 2-CPU host a repetition's throughput swings by
// tens of percent with neighbours' load and with where a fresh structure
// lands in memory, so a workload's measured time is split into many
// short repetitions, each on a freshly built structure or server, and
// every end-to-end metric is their median.
const repLength = 1100 * time.Millisecond

// warmUp precedes a workload's measurement. A vCPU of this host that was
// idle needs about 2 s of load to reach its full speed.
const warmUp = 2 * time.Second

// plan is one invocation's timing.
type plan struct {
	seed   uint64
	reps   int
	window time.Duration // one repetition
	probe  time.Duration // the host probe after each repetition
	arm    time.Duration // one arm of the traced run
	warm   time.Duration // untimed warm-up per workload
}

func newPlan(seed uint64, seconds float64, quick bool) plan {
	if quick {
		ms := time.Millisecond
		return plan{seed: seed, reps: 3, window: 50 * ms, probe: 10 * ms, arm: 50 * ms, warm: 50 * ms}
	}
	total := time.Duration(seconds * float64(time.Second))
	reps := max(1, int(math.Round(seconds/repLength.Seconds())))
	slot := total / time.Duration(reps)
	probe := min(probeLength, slot/10)
	return plan{seed: seed, reps: reps, window: slot - probe, probe: probe, arm: total / 3, warm: warmUp}
}

// wlResult is one workload's outcome in one set.
type wlResult struct {
	w                 *workload
	reps              []map[string]float64 // end-to-end metrics per repetition, adjusted to the reference host speed
	raw               []map[string]float64 // the same, as measured
	probes            []probeResult        // the host probe after each repetition
	setups            []float64            // every set-up timed, in s
	latSamples        int64
	attempted, failed int64
	notes             []string
	layer             map[string]float64 // traced runs only
	report            []string
}

func (r *wlResult) absorb(res repResult) {
	r.attempted += res.attempted
	r.failed += res.failed
	r.notes = append(r.notes, res.notes...)
	r.setups = append(r.setups, res.setup.Seconds())
}

// values lists a metric's per-repetition values (per set-up for setup_s).
func (r *wlResult) values(name string) []float64 {
	if r.layer != nil {
		return []float64{r.layer[name]}
	}
	if name == "setup_s" {
		return r.setups
	}
	return column(r.reps, name)
}

func column(reps []map[string]float64, name string) []float64 {
	xs := make([]float64, len(reps))
	for i, m := range reps {
		xs[i] = m[name]
	}
	return xs
}

// probeMedians are the median rate and chunk time of the run's probes.
func (r *wlResult) probeMedians() (rate, chunkNS float64) {
	var rates, chunks []float64
	for _, p := range r.probes {
		rates = append(rates, p.rate)
		chunks = append(chunks, p.chunkNS)
	}
	return median(rates), median(chunks)
}

// warmRep is the repetition number the warm-up's inputs derive from.
const warmRep = 1 << 20

func repSeed(seed uint64, workload, rep int) uint64 {
	return seed*0x100000001b3 + uint64(workload)*7919 + uint64(rep)
}

// setupTrials is the number of extra set-ups (a repetition with no
// window) run beside each measured repetition. A set-up lasts about a
// millisecond, so host jitter moves a single one by tens of percent;
// the extra trials make setup_s a median of three set-ups per second
// measured, for about 1% more run time.
const setupTrials = 2

// measure runs a workload's warm-up and its measured repetitions, each
// on a freshly built structure or server, with setupTrials set-ups
// beside each and the host probe after each; setup_s is the median over
// all of those set-ups.
func measure(w *workload, wi int, p plan) *wlResult {
	r := &wlResult{w: w}
	r.absorb(w.rep(repConfig{seed: repSeed(p.seed, wi, warmRep), window: p.warm}))
	for i := range p.reps {
		for range setupTrials {
			r.absorb(w.rep(repConfig{seed: repSeed(p.seed, wi, i)}))
		}
		res := w.rep(repConfig{seed: repSeed(p.seed, wi, i), window: p.window})
		r.absorb(res)
		pr := hostProbe(p.probe)
		r.raw = append(r.raw, res.e2e())
		r.reps = append(r.reps, adjust(res.e2e(), pr))
		r.probes = append(r.probes, pr)
		r.latSamples += samples(res.lat)
	}
	return r
}

// traceRun is a workload's traced run: an untraced arm, a traced arm on
// the same inputs, for stack workloads an arm on the other session API,
// and a replay of the workload's op stream through the wire codec.
func traceRun(w *workload, wi int, p plan) (*wlResult, *traceLog) {
	r := &wlResult{w: w, layer: map[string]float64{}}
	for _, d := range perLayer {
		r.layer[d.name] = 0
	}
	tl := newTraceLog(w.name)
	seed := repSeed(p.seed, wi, 0)
	r.absorb(w.rep(repConfig{seed: repSeed(p.seed, wi, warmRep), window: p.warm}))
	a := w.rep(repConfig{seed: seed, window: p.arm})
	// Sample served requests so that the arm's requests, at the untraced
	// arm's rate with a quarter to spare, fit the per-connection cap.
	every := a.attempted*5/4/int64(workers())/reqTimeCap + 1
	b := w.rep(repConfig{seed: seed, window: p.arm, traced: true, tl: tl, traceEvery: every})
	r.absorb(a)
	r.absorb(b)
	for k, v := range b.layer {
		r.layer[k] = v
	}
	r.report = b.report
	r.latSamples = samples(b.lat)
	r.layer["runtime.sched_latency_us_p99"] = a.rt.schedP99us
	r.layer["runtime.gc_cpu_pct"] = a.rt.gcCPUPct
	r.layer["proc.cpu_cores"] = a.rt.cpuCores
	ta, tb := a.e2e()["throughput_ops_s"], b.e2e()["throughput_ops_s"]
	r.layer["trace.overhead_pct"] = 100 * (ta - tb) / ta
	r.report = append(r.report, fmt.Sprintf("throughput untraced %.0f ops/s, traced %.0f ops/s", ta, tb))

	if w.stack != nil {
		c := w.rep(repConfig{seed: seed, window: p.arm, altAPI: true})
		r.absorb(c)
		free, explicit := a, c
		if w.stack.explicit {
			free, explicit = c, a
		}
		r.layer["isession.overhead_ns"] = free.nsPerOp() - explicit.nsPerOp()
		r.report = append(r.report, fmt.Sprintf("isession arm: handle-free %.1f ns/op, explicit %.1f ns/op",
			free.nsPerOp(), explicit.nsPerOp()))
	}
	enc, dec, ok := wireReplay(w.mix(), seed)
	if !ok {
		r.failed++
		r.notes = append(r.notes, "wire replay: decoded frames differ from the encoded ones")
	}
	r.layer["wire.encode_ns"], r.layer["wire.decode_ns"] = enc, dec
	tl.Counters["attempted"] = b.attempted
	tl.Counters["failed"] = b.failed
	return r, tl
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	var (
		which     = fs.String("workload", "all", "comma-separated workloads to run, or all: "+strings.Join(names, ", "))
		seed      = fs.Uint64("seed", 1, "seed every generated input is derived from")
		seconds   = fs.Float64("seconds", 45, "measured seconds per workload, split evenly over the repetitions (or the traced run's arms)")
		quick     = fs.Bool("quick", false, "smoke run: about 200 ms per workload")
		jsonPath  = fs.String("json", "", "also write every value, the metric definitions and the host to this file")
		tracePath = fs.String("trace", "", "traced run: print per-layer metrics and write spans to this file")
		sets      = fs.Int("sets", 1, "run the full set this many times and check each set's medians against the first's within the metrics' bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *sets < 1 || (*tracePath != "" && *sets > 1) {
		fmt.Fprintln(stderr, "bench: want no arguments, -seconds > 0, -sets >= 1, and -sets 1 with -trace")
		return 2
	}
	var selected []int
	for _, n := range strings.Split(*which, ",") {
		i := slices.Index(names, n)
		switch {
		case n == "all":
			selected = append(selected, 0, 1, 2, 3)
		case i < 0:
			fmt.Fprintf(stderr, "bench: unknown workload %q (known: %s)\n", n, strings.Join(names, ", "))
			return 2
		default:
			selected = append(selected, i)
		}
	}

	p := newPlan(*seed, *seconds, *quick)
	traced := *tracePath != ""
	host := readHost()
	start := time.Now()
	fmt.Fprintf(stdout, "# host: %s\n", host)
	if traced {
		fmt.Fprintf(stdout, "# seed %d, %d workers, %v warm-up, traced run: arms of %v per workload\n", p.seed, workers(), p.warm, p.arm)
	} else {
		fmt.Fprintf(stdout, "# seed %d, %d workers, %v warm-up, %d x (%v + %v host probe) per workload, %d set(s)\n",
			p.seed, workers(), p.warm, p.reps, p.window, p.probe, *sets)
	}

	// A workload's sets run back to back, so that host load drifting
	// over minutes separates them as little as it can.
	all := make([][]*wlResult, *sets)
	var logs []*traceLog
	for _, wi := range selected {
		w := workloads[wi]
		for s := range all {
			var r *wlResult
			if traced {
				var tl *traceLog
				r, tl = traceRun(w, wi, p)
				logs = append(logs, tl)
			} else {
				r = measure(w, wi, p)
			}
			printWorkload(stdout, r)
			all[s] = append(all[s], r)
		}
	}

	exit := 0
	doc := buildDoc(host, p, *seconds, all)
	if *sets > 1 && !printAgreement(stdout, doc) {
		exit = 1
	}
	if !doc.Correct {
		fmt.Fprintf(stderr, "bench: %d of %d operations failed or went unaccounted for\n", doc.Failed, doc.Attempted)
		exit = 1
	}
	if traced {
		if err := writeTrace(*tracePath, host, logs); err != nil {
			fmt.Fprintf(stderr, "bench: trace: %v\n", err)
			exit = 1
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, doc); err != nil {
			fmt.Fprintf(stderr, "bench: json: %v\n", err)
			exit = 1
		}
	}
	fmt.Fprintf(stdout, "# done in %.1f s\n", time.Since(start).Seconds())
	line, err := json.Marshal(resultLine(doc, len(selected) == 1))
	if err != nil {
		fmt.Fprintf(stderr, "bench: result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return exit
}

func printWorkload(out io.Writer, r *wlResult) {
	if r.layer != nil {
		fmt.Fprintf(out, "== %s (traced): %s\n", r.w.name, r.w.why)
		for _, d := range perLayer {
			fmt.Fprintf(out, "  %-30s %12.4g %-9s moves %s\n", d.name, r.layer[d.name], d.unit, d.moves)
		}
	} else {
		fmt.Fprintf(out, "== %s: %s\n", r.w.name, r.w.why)
		for _, d := range endToEnd {
			xs := r.values(d.name)
			q1, q2, q3 := quartiles(xs)
			extra := ""
			if strings.HasPrefix(d.name, "latency_") {
				extra = fmt.Sprintf(", %d samples", r.latSamples)
			}
			if raw := column(r.raw, d.name); d.name != "setup_s" && !slices.Equal(raw, xs) {
				extra += fmt.Sprintf("; as measured %.6g", median(raw))
			}
			fmt.Fprintf(out, "  %-18s %12.6g %-16s (median of %d, quartiles %.6g .. %.6g%s)\n",
				d.name, q2, d.unit, len(xs), q1, q3, extra)
		}
		rate, chunk := r.probeMedians()
		fmt.Fprintf(out, "  host probe: %.4g chunks/s (reference %.4g), median chunk %.0f ns (reference %.0f)\n",
			rate, refProbeRate, chunk, refChunkNS)
	}
	for _, line := range r.report {
		fmt.Fprintf(out, "  %s\n", line)
	}
	fmt.Fprintf(out, "  attempted %d, failed %d\n", r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(out, "  VIOLATION: %s\n", n)
	}
}

// printAgreement prints each set's median and quartiles per workload
// and metric, the largest move of a later set's median from the first
// set's, and whether that move lies within the metric's bound. A metric
// whose sets of the same code moved further is unresolved: at its bound
// the benchmark cannot tell a regression from the host's noise. It
// reports whether every metric is resolved.
func printAgreement(out io.Writer, d doc) bool {
	ok := true
	fmt.Fprintf(out, "== repeatability over %d sets: median [q1, q3] per set\n", len(d.Workloads[0].Metrics[0].Sets))
	for _, wl := range d.Workloads {
		for _, m := range wl.Metrics {
			cols, move := "", 0.0
			base := m.Sets[0].Median
			for _, s := range m.Sets {
				cols += fmt.Sprintf("  %.6g [%.6g, %.6g]", s.Median, s.Q1, s.Q3)
				if math.Abs(s.Median-base) > math.Abs(move) {
					move = s.Median - base
				}
			}
			ok = ok && *m.Agree
			moved := fmt.Sprintf("%+.1f%%", 100*move/base)
			if base == 0 {
				moved = fmt.Sprintf("%+.6g", move)
			}
			verdict := "agree"
			if !*m.Agree {
				verdict = "UNRESOLVED"
			}
			fmt.Fprintf(out, "  %-17s %-16s%s  moved %s, bound ±%.6g: %s\n",
				wl.Name, m.Name, cols, moved, m.def.allowed(base), verdict)
		}
	}
	return ok
}

// doc is the -json output: every value with the host and metric
// definitions it needs to be read later.
type doc struct {
	Host      hostInfo   `json:"host"`
	Seed      uint64     `json:"seed"`
	Seconds   float64    `json:"seconds"`
	Reps      int        `json:"reps"`
	Workers   int        `json:"workers"`
	Traced    bool       `json:"traced"`
	Correct   bool       `json:"correct"`
	Attempted int64      `json:"attempted"`
	Failed    int64      `json:"failed"`
	Metrics   []docDef   `json:"metrics"`
	Workloads []docWload `json:"workloads"`
}

type docDef struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Moves  string  `json:"moves,omitempty"`
}

type docWload struct {
	Name    string      `json:"name"`
	Why     string      `json:"why"`
	Metrics []docMetric `json:"metrics"`
	Probes  []docProbe  `json:"host_probe,omitempty"` // per set
	Notes   []string    `json:"violations,omitempty"`
	Report  []string    `json:"report,omitempty"`
}

type docMetric struct {
	Name  string   `json:"name"`
	Unit  string   `json:"unit"`
	Sets  []docSet `json:"sets"`
	Agree *bool    `json:"agree,omitempty"`
	def   metricDef
}

type docSet struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Measured holds the values before adjust, for the metrics it scales.
	Measured []float64 `json:"as_measured,omitempty"`
}

type docProbe struct {
	Rate    float64 `json:"rate_median"`
	ChunkNS float64 `json:"chunk_ns_median"`
}

func buildDoc(host hostInfo, p plan, seconds float64, all [][]*wlResult) doc {
	d := doc{Host: host, Seed: p.seed, Seconds: seconds, Reps: p.reps, Workers: workers(), Traced: all[0][0].layer != nil}
	defs := endToEnd
	if d.Traced {
		defs = perLayer
	}
	for _, m := range endToEnd {
		d.Metrics = append(d.Metrics, docDef{Name: m.name, Kind: "end_to_end", Unit: m.unit, Better: m.better, Bound: m.bound})
	}
	for _, m := range perLayer {
		d.Metrics = append(d.Metrics, docDef{Name: m.name, Kind: "per_layer", Unit: m.unit, Better: m.better, Moves: m.moves})
	}
	for wi, first := range all[0] {
		wl := docWload{Name: first.w.name, Why: first.w.why, Report: first.report}
		for _, def := range defs {
			m := docMetric{Name: def.name, Unit: def.unit, def: def}
			for _, set := range all {
				xs := set[wi].values(def.name)
				q1, q2, q3 := quartiles(xs)
				s := docSet{Values: xs, Median: q2, Q1: q1, Q3: q3}
				if raw := column(set[wi].raw, def.name); def.name != "setup_s" && !slices.Equal(raw, xs) {
					s.Measured = raw
				}
				m.Sets = append(m.Sets, s)
			}
			if len(all) > 1 {
				agree := true
				for _, s := range m.Sets[1:] {
					agree = agree && def.agree(m.Sets[0].Median, s.Median)
				}
				m.Agree = &agree
			}
			wl.Metrics = append(wl.Metrics, m)
		}
		for _, set := range all {
			d.Attempted += set[wi].attempted
			d.Failed += set[wi].failed
			wl.Notes = append(wl.Notes, set[wi].notes...)
			if !d.Traced {
				rate, chunk := set[wi].probeMedians()
				wl.Probes = append(wl.Probes, docProbe{rate, chunk})
			}
		}
		d.Workloads = append(d.Workloads, wl)
	}
	d.Correct = d.Failed == 0 && d.Attempted > 0
	return d
}

func writeJSON(path string, d doc) error {
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the closing line: the run's metrics (end-to-end, or
// per-layer when traced), each the median over every set's values,
// named plainly for a single workload and prefixed with the workload
// otherwise. Metrics marked offLine are left out.
func resultLine(d doc, single bool) any {
	ms := map[string]resultMetric{}
	for _, wl := range d.Workloads {
		for _, m := range wl.Metrics {
			if m.def.offLine {
				continue
			}
			var xs []float64
			for _, s := range m.Sets {
				xs = append(xs, s.Values...)
			}
			v := median(xs)
			name := m.Name
			if !single {
				name = wl.Name + "." + name
			}
			ms[name] = resultMetric{v, m.Unit}
		}
	}
	return struct {
		Correct   bool                    `json:"correct"`
		Attempted int64                   `json:"attempted"`
		Failed    int64                   `json:"failed"`
		Metrics   map[string]resultMetric `json:"metrics"`
	}{d.Correct, d.Attempted, d.Failed, ms}
}
