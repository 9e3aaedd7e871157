package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestLatencyHistBucketsMonotone(t *testing.T) {
	// Bucket indices must be monotone in the value and within range for
	// the full int64 domain.
	prev := -1
	for _, ns := range []int64{0, 1, 7, 8, 9, 15, 16, 31, 100, 1000, 1e6, 1e9, 1e12, math.MaxInt64} {
		idx := latBucket(ns)
		if idx < 0 || idx >= latBuckets {
			t.Fatalf("latBucket(%d) = %d out of range [0, %d)", ns, idx, latBuckets)
		}
		if idx < prev {
			t.Fatalf("latBucket(%d) = %d < previous %d: not monotone", ns, idx, prev)
		}
		prev = idx
	}
	// Small values are exact.
	for ns := int64(0); ns < 2*latSub; ns++ {
		if got := bucketValue(latBucket(ns)); got != time.Duration(ns) {
			t.Fatalf("small bucket not exact: %d -> %v", ns, got)
		}
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h LatencyHist
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zero")
	}
	// 1000 observations at 1us, 10 at 1ms: p50 ~ 1us, p99.9+ ~ 1ms.
	for i := 0; i < 1000; i++ {
		h.Record(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(time.Millisecond)
	}
	if c := h.Count(); c != 1010 {
		t.Fatalf("Count = %d, want 1010", c)
	}
	p50 := h.Quantile(0.50)
	if p50 < 800*time.Nanosecond || p50 > 1200*time.Nanosecond {
		t.Fatalf("p50 = %v, want ~1us", p50)
	}
	p999 := h.Quantile(0.9999)
	if p999 < 800*time.Microsecond || p999 > 1200*time.Microsecond {
		t.Fatalf("p99.99 = %v, want ~1ms", p999)
	}
	// Quantiles are clamped, not panicking, outside [0,1].
	if h.Quantile(-1) > h.Quantile(2) {
		t.Fatal("clamped quantiles out of order")
	}
	// Negative durations clamp to zero instead of indexing negatively.
	h.Record(-time.Second)
	if h.Count() != 1011 {
		t.Fatal("negative duration not recorded")
	}
}

func TestLatencyHistMerge(t *testing.T) {
	var a, b LatencyHist
	a.Record(time.Microsecond)
	b.Record(time.Millisecond)
	b.Record(time.Millisecond)
	a.Merge(&b)
	if c := a.Count(); c != 3 {
		t.Fatalf("merged Count = %d, want 3", c)
	}
	if p99 := a.Quantile(0.99); p99 < 800*time.Microsecond {
		t.Fatalf("merged p99 = %v, want ~1ms", p99)
	}
	// nil receivers and arguments are no-ops.
	var nh *LatencyHist
	nh.Record(time.Second)
	nh.Merge(&a)
	a.Merge(nil)
	if nh.Count() != 0 || nh.Quantile(0.5) != 0 {
		t.Fatal("nil histogram should stay empty")
	}
}

func TestServerCollector(t *testing.T) {
	m := NewServer(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.SessionStart()
			c := m.NewConn()
			for i := 0; i < 100; i++ {
				if c.Start(i % 4) {
					c.Time(i%4, time.Duration(i)*time.Microsecond)
				}
				if i%10 == 9 { // bursts of 10 requests
					c.Fold()
				}
			}
			m.SessionEnd()
		}()
	}
	wg.Wait()
	if got := m.Sessions(); got != 0 {
		t.Fatalf("Sessions = %d after all ended, want 0", got)
	}
	if m.PeakSessions() < 1 || m.PeakSessions() > 8 {
		t.Fatalf("PeakSessions = %d, want in [1,8]", m.PeakSessions())
	}
	if got := m.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after all done, want 0", got)
	}
	if got := m.TotalOps(); got != 800 {
		t.Fatalf("TotalOps = %d, want 800", got)
	}
	op := m.Op(1)
	if op.Count != 200 || op.P50 <= 0 || op.P99 < op.P50 {
		t.Fatalf("Op(1) = %+v, want 200 ops with ordered quantiles", op)
	}
	m.RecordReject()
	if m.Rejected() != 1 {
		t.Fatal("Rejected not counted")
	}
	// Out-of-range opcodes are dropped, not panics.
	c := m.NewConn()
	c.Start(99)
	c.Start(-1)
	c.Time(99, time.Second)
	c.Time(-1, time.Second)
	c.Fold()
	if m.TotalOps() != 800 || m.InFlight() != 0 {
		t.Fatalf("out-of-range opcodes moved TotalOps to %d, InFlight to %d", m.TotalOps(), m.InFlight())
	}

	// A nil collector is a valid no-op, as with *SEC.
	var nm *Server
	nm.SessionStart()
	nm.SessionEnd()
	nc := nm.NewConn()
	nc.Start(0)
	nc.Time(0, time.Second)
	nc.Fold()
	nm.RecordReject()
	nm.RecordEviction()
	nm.RecordPanic()
	nm.RecordRetries(3)
	if nm.Sessions() != 0 || nm.PeakSessions() != 0 || nm.InFlight() != 0 ||
		nm.TotalOps() != 0 || nm.Rejected() != 0 || nm.Op(0) != (OpStats{}) ||
		nm.Evictions() != 0 || nm.PanicsRecovered() != 0 || nm.RetriesObserved() != 0 ||
		nm.Snapshot() != (ServerSnapshot{}) {
		t.Fatal("nil Server should report zeros")
	}
}

// TestServerRobustnessCounters covers the serving-path hardening
// telemetry: deadline evictions, recovered per-connection panics and
// client-reported retries, plus the merged Snapshot view secd's
// drain-stats line prints.
func TestServerRobustnessCounters(t *testing.T) {
	m := NewServer(2)
	m.RecordEviction()
	m.RecordEviction()
	m.RecordPanic()
	m.RecordRetries(5)
	m.RecordRetries(0)  // non-positive reports are dropped
	m.RecordRetries(-7) // (a hostile RetryMark arg must not rewind the counter)
	if got := m.Evictions(); got != 2 {
		t.Fatalf("Evictions = %d, want 2", got)
	}
	if got := m.PanicsRecovered(); got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}
	if got := m.RetriesObserved(); got != 5 {
		t.Fatalf("RetriesObserved = %d, want 5", got)
	}
	m.SessionStart()
	c := m.NewConn()
	c.Start(1)
	c.Fold()
	s := m.Snapshot()
	want := ServerSnapshot{
		Sessions: 1, PeakSessions: 1, Rejected: 0, InFlight: 0,
		Evictions: 2, PanicsRecovered: 1, RetriesObserved: 5, TotalOps: 1,
	}
	if s != want {
		t.Fatalf("Snapshot = %+v, want %+v", s, want)
	}
}

// TestConnTally pins a connection tally's contract: counts reach the
// Server only at Fold, and then exactly; the in-flight gauge reads one
// for a connection between its first request and its Fold, whatever the
// burst's length; the service time is sampled from the first request
// and then every serviceSample-th, so across bursts of a power-of-two
// length the timed request visits every position of the burst.
func TestConnTally(t *testing.T) {
	m := NewServer(2)
	c := m.NewConn()
	const burst = 32
	positions := make(map[int]bool)
	timed := 0
	for b := 0; b < serviceSample; b++ {
		for i := 0; i < burst; i++ {
			if c.Start(1) {
				if b == 0 && i == 0 && timed != 0 {
					t.Fatal("a connection's first request was not timed")
				}
				timed++
				positions[i] = true
				c.Time(1, time.Microsecond)
			}
			if got := m.InFlight(); got != 1 {
				t.Fatalf("InFlight = %d inside a burst, want 1", got)
			}
		}
		if got, want := m.Op(1).Count, int64(b*burst); got != want {
			t.Fatalf("Count = %d before burst %d's fold, want %d", got, b, want)
		}
		c.Fold()
		if got := m.InFlight(); got != 0 {
			t.Fatalf("InFlight = %d after a fold, want 0", got)
		}
	}
	if got, want := m.Op(1).Count, int64(serviceSample*burst); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	if want := serviceSample * burst / serviceSample; timed != want {
		t.Fatalf("timed %d requests, want 1 in %d of %d = %d", timed, serviceSample, serviceSample*burst, want)
	}
	if len(positions) != burst {
		t.Fatalf("timed requests covered %d of %d burst positions", len(positions), burst)
	}
	if h := &m.ops[1].lat; h.Count() != int64(timed) {
		t.Fatalf("histogram holds %d samples, want %d", h.Count(), timed)
	}
	c.Fold() // a fold with nothing pending leaves the gauge alone
	if got := m.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after an empty fold, want 0", got)
	}
}

func TestGetStealCounters(t *testing.T) {
	m := NewSEC(2)
	m.RecordGetSteal(1, true)
	m.RecordGetSteal(1, true)
	m.RecordGetSteal(0, false)
	s := m.Snapshot()
	if s.GetStealHits != 2 || s.GetStealMisses != 1 {
		t.Fatalf("get-steal counters = %d/%d, want 2/1", s.GetStealHits, s.GetStealMisses)
	}
	if pct := s.GetStealPct(); math.Abs(pct-100*2.0/3.0) > 1e-9 {
		t.Fatalf("GetStealPct = %v", pct)
	}
	var acc Snapshot
	acc.Accumulate(s)
	acc.Accumulate(s)
	if acc.GetStealHits != 4 || acc.GetStealMisses != 2 {
		t.Fatalf("accumulated get-steal = %d/%d", acc.GetStealHits, acc.GetStealMisses)
	}
	m.Reset()
	if s := m.Snapshot(); s.GetStealHits != 0 || s.GetStealMisses != 0 {
		t.Fatal("Reset did not clear get-steal counters")
	}
	if (Snapshot{}).GetStealPct() != 0 {
		t.Fatal("empty GetStealPct should be 0")
	}
	var nilSEC *SEC
	nilSEC.RecordGetSteal(0, true) // no-op, no panic
}
