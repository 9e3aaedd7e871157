package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"secstack/internal/wire"
)

// TestQuickSmoke runs every workload briefly and checks that each
// end-to-end metric is printed with its unit for every workload, that
// nothing failed, and that the closing line is the result object.
func TestQuickSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-quick"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	text := out.String()
	for _, w := range workloads {
		block := workloadBlock(t, text, "== "+w.name+":")
		for _, d := range endToEnd {
			re := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.name) + ` +[-+.e0-9]+ ` + regexp.QuoteMeta(d.unit) + ` `)
			if !re.MatchString(block) {
				t.Errorf("%s: no %q line with unit %q in:\n%s", w.name, d.name, d.unit, block)
			}
		}
		if !regexp.MustCompile(`(?m)^  error_rate +0 `).MatchString(block) {
			t.Errorf("%s: error_rate is not 0:\n%s", w.name, block)
		}
	}
	res := lastLine(t, text)
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("result line: correct %v, failed %d, attempted %d", res.Correct, res.Failed, res.Attempted)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			m, ok := res.Metrics[w.name+"."+d.name]
			if d.offLine {
				if ok {
					t.Errorf("result line carries off-line metric %s", d.name)
				}
				continue
			}
			if !ok || m.Unit != d.unit || m.Value <= 0 {
				t.Errorf("result line: %s.%s = %+v", w.name, d.name, m)
			}
		}
	}
}

// TestQuickTraced runs the traced run briefly: every per-layer metric is
// printed, the served workloads print the decomposition check, and the
// span file is written.
func TestQuickTraced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out, errOut bytes.Buffer
	if code := run([]string{"-quick", "-trace", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	text := out.String()
	for _, w := range workloads {
		block := workloadBlock(t, text, "== "+w.name+" (traced):")
		for _, d := range perLayer {
			if !strings.Contains(block, "  "+d.name+" ") {
				t.Errorf("%s: per-layer metric %s not printed", w.name, d.name)
			}
		}
		if w.served != nil && !strings.Contains(block, "decomposition check:") {
			t.Errorf("%s: no decomposition check", w.name)
		}
		if w.stack != nil && !strings.Contains(block, "value check:") {
			t.Errorf("%s: no value check", w.name)
		}
	}
	res := lastLine(t, text)
	for _, d := range perLayer {
		if _, ok := res.Metrics[workloads[0].name+"."+d.name]; ok == d.offLine {
			t.Errorf("traced result line: %s present %v, off-line %v", d.name, ok, d.offLine)
		}
	}
}

// TestServedRunsLeaveNoGoroutines checks that every server, connection
// and worker a served run starts has ended by the time run returns.
func TestServedRunsLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var out, errOut bytes.Buffer
	if code := run([]string{"-quick", "-workload", "served-rpc,served-pipelined"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the run, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestBenchmarkJSONMatchesTables keeps the repository's BENCHMARK.json
// in step with the workloads and metric tables the benchmark prints:
// every metric that goes on the result line, with its unit, direction
// and bound, and nothing else.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var doc struct {
		Workloads, EndToEnd, PerLayer []entry
	}
	if err := json.Unmarshal(b, &struct {
		Workloads *[]entry `json:"workloads"`
		EndToEnd  *[]entry `json:"end_to_end"`
		PerLayer  *[]entry `json:"per_layer"`
	}{&doc.Workloads, &doc.EndToEnd, &doc.PerLayer}); err != nil {
		t.Fatal(err)
	}
	var want []entry
	for _, w := range workloads {
		want = append(want, entry{Name: w.name, Why: w.why})
	}
	if !slices.Equal(doc.Workloads, want) {
		t.Errorf("workloads:\n got %+v\nwant %+v", doc.Workloads, want)
	}
	onLine := func(defs []metricDef) []entry {
		var out []entry
		for _, d := range defs {
			if !d.offLine {
				out = append(out, entry{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound})
			}
		}
		return out
	}
	if want := onLine(endToEnd); !slices.Equal(doc.EndToEnd, want) {
		t.Errorf("end_to_end:\n got %+v\nwant %+v", doc.EndToEnd, want)
	}
	if want := onLine(perLayer); !slices.Equal(doc.PerLayer, want) {
		t.Errorf("per_layer:\n got %+v\nwant %+v", doc.PerLayer, want)
	}
}

func workloadBlock(t *testing.T, text, header string) string {
	t.Helper()
	i := strings.Index(text, header)
	if i < 0 {
		t.Fatalf("no %q block in:\n%s", header, text)
	}
	block := text[i+len(header):]
	if j := strings.Index(block, "\n=="); j >= 0 {
		block = block[:j]
	}
	return block
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func lastLine(t *testing.T, text string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	return r
}

func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		med        float64
		q1, q2, q3 float64
	}{
		// Quartiles as Python's statistics.quantiles(xs, n=4) gives them.
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 2, 1, 2, 3},
		{[]float64{2, 1}, 1.5, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7, 7},
	} {
		if m := median(c.xs); m != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.med)
		}
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := median(nil); m != 0 {
		t.Errorf("median(nil) = %v", m)
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(100 - i) // 1..100, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentileOf(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	// A reservoir standing for 99 observations outweighs one standing
	// for a single observation, whatever their sample sizes.
	heavy := &reservoir{seen: 99, xs: []int64{1}}
	light := &reservoir{seen: 1, xs: []int64{1000, 1000, 1000}}
	if got := percentiles([]*reservoir{heavy, light}, 0.5, 0.99, 1); got[0] != 1 || got[1] != 1 || got[2] != 1000 {
		t.Errorf("weighted percentiles = %v, want [1 1 1000]", got)
	}
	if got := percentiles(nil, 0.5); got[0] != 0 {
		t.Errorf("empty percentile = %v", got[0])
	}

	r := newReservoir(64, 1)
	for i := range 10000 {
		r.add(int64(i))
	}
	if r.seen != 10000 || len(r.xs) != 64 {
		t.Fatalf("reservoir kept %d of %d", len(r.xs), r.seen)
	}
	if m := percentiles([]*reservoir{r}, 0.5)[0]; m < 2500 || m > 7500 {
		t.Errorf("reservoir median %v is not near the stream's 5000", m)
	}
}

// TestAdjust checks the host-speed scaling: identity at the reference
// speed; a host at half the reference rate doubles throughput and
// halves p99; a doubled median chunk halves p50; nothing else moves.
func TestAdjust(t *testing.T) {
	m := map[string]float64{"throughput_ops_s": 1000, "latency_p50_us": 10, "latency_p99_us": 40, "heap_live_kb": 7, "setup_s": 0.5}
	if got := adjust(m, probeResult{refProbeRate, refChunkNS}); !maps.Equal(got, m) {
		t.Errorf("at the reference speed: %v, want %v", got, m)
	}
	want := map[string]float64{"throughput_ops_s": 2000, "latency_p50_us": 5, "latency_p99_us": 20, "heap_live_kb": 7, "setup_s": 0.5}
	if got := adjust(m, probeResult{refProbeRate / 2, 2 * refChunkNS}); !maps.Equal(got, want) {
		t.Errorf("at half speed: %v, want %v", got, want)
	}
	if m["throughput_ops_s"] != 1000 {
		t.Errorf("adjust modified its input: %v", m)
	}
	if p := hostProbe(20 * time.Millisecond); p.rate <= 0 || p.chunkNS <= 0 {
		t.Errorf("hostProbe = %+v", p)
	}
}

func TestOpStreamDealsExactMix(t *testing.T) {
	s := newOpStream(mixedMix, 3)
	for block := range 3 {
		counts := map[wire.Op]int{}
		for range 100 {
			counts[s.next()]++
		}
		for _, e := range mixedMix {
			if counts[e.op] != e.weight {
				t.Errorf("block %d: %v dealt %d times, want %d", block, e.op, counts[e.op], e.weight)
			}
		}
	}
}

// faultyStack is a slice stack that can duplicate one pop (returning the
// top without removing it) or lose one push (dropping it silently), and
// that stops its worker after a fixed number of operations.
type faultyStack struct {
	items          []int64
	calls, stopAt  int
	dupAt, loseAt  int
	stop           *atomic.Bool
	duped, dropped bool
}

func (f *faultyStack) tick() int {
	f.calls++
	if f.calls == f.stopAt {
		f.stop.Store(true)
	}
	return f.calls
}

func (f *faultyStack) Push(v int64) {
	if f.tick() >= f.loseAt && !f.dropped {
		f.dropped = true
		return
	}
	f.items = append(f.items, v)
}

func (f *faultyStack) Pop() (int64, bool) {
	n := f.tick()
	if len(f.items) == 0 {
		return 0, false
	}
	v := f.items[len(f.items)-1]
	if n >= f.dupAt && !f.duped {
		f.duped = true
		return v, true
	}
	f.items = f.items[:len(f.items)-1]
	return v, true
}

func (f *faultyStack) Peek() (int64, bool) {
	f.tick()
	if len(f.items) == 0 {
		return 0, false
	}
	return f.items[len(f.items)-1], true
}

// auditFaulty runs one worker against a faultyStack prefilled like the
// benchmark's stacks, drains it, and audits the popped values.
func auditFaulty(dupAt, loseAt int) (dups, lost, alien, drainedMinusExpected int64) {
	var stop atomic.Bool
	const pushers = 1
	f := &faultyStack{stopAt: 5000, dupAt: dupAt, loseAt: loseAt, stop: &stop}
	for i := range prefill {
		f.items = append(f.items, tag(pushers, int64(i)))
	}
	sw := &stackWorker{id: 0, ops: f, stream: newOpStream(elimMix, 9), log: newPopLog(pushers + 1), latCalls: 8}
	for k := range sw.lat {
		sw.lat[k] = newReservoir(8, uint64(k))
	}
	sw.group = newReservoir(8, 9)
	sw.run(&stop)
	drain := newPopLog(pushers + 1)
	drained := int64(len(f.items))
	for _, v := range f.items {
		drain.mark(v)
	}
	dups, lost, alien = audit([]*popLog{sw.log, drain}, []int64{sw.pushed, prefill})
	return dups, lost, alien, drained - (prefill + sw.pushed - sw.popped)
}

func TestAuditDetectsInjectedFaults(t *testing.T) {
	const never = 1 << 30
	if d, l, a, c := auditFaulty(never, never); d != 0 || l != 0 || a != 0 || c != 0 {
		t.Fatalf("clean run: dups %d lost %d alien %d conservation off by %d", d, l, a, c)
	}
	if d, l, a, c := auditFaulty(100, never); d != 1 || l != 0 || a != 0 || c != 1 {
		t.Errorf("duplicate pop: dups %d lost %d alien %d conservation off by %d, want 1 0 0 1", d, l, a, c)
	}
	if d, l, a, c := auditFaulty(never, 100); d != 0 || l != 1 || a != 0 || c != -1 {
		t.Errorf("lost push: dups %d lost %d alien %d conservation off by %d, want 0 1 0 -1", d, l, a, c)
	}
}

func TestAuditFlagsForeignValues(t *testing.T) {
	l := newPopLog(2)
	l.mark(tag(0, 0))
	l.mark(tag(0, 5)) // past what pusher 0 pushed
	l.mark(tag(7, 0)) // no such pusher
	l.mark(-1)
	if dups, lost, alien := audit([]*popLog{l}, []int64{2, 0}); dups != 0 || lost != 1 || alien != 3 {
		t.Errorf("dups %d lost %d alien %d, want 0 1 3", dups, lost, alien)
	}
}
