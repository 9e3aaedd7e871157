package isession

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testHandle is a pointer handle like the structures', so Entry gets
// a normal (non-tiny) allocation and its reclaim cleanup is reliable.
type testHandle struct{ id int64 }

// capReg is a register func with a hard capacity, counting live
// handles the way the structures' tid allocators do.
type capReg struct {
	live atomic.Int64
	cap  int64
}

var errFull = errors.New("isession_test: capacity exhausted")

func (c *capReg) register() (*testHandle, error) {
	for {
		n := c.live.Load()
		if n >= c.cap {
			return nil, errFull
		}
		if c.live.CompareAndSwap(n, n+1) {
			return &testHandle{id: n}, nil
		}
	}
}

func (c *capReg) close(*testHandle) { c.live.Add(-1) }

func TestAcquireReleaseRoundtrip(t *testing.T) {
	reg := &capReg{cap: 64}
	s := New(true, reg.register, reg.close)
	e := s.Acquire()
	s.Release(e)
	// Same goroutine, no preemption point: overwhelmingly the same P,
	// but the contract is only "some cached entry", so assert that no
	// second registration happened across many iterations on one
	// goroutine (migrations would spill+refill, not re-register).
	for i := 0; i < 1000; i++ {
		e := s.Acquire()
		s.Release(e)
	}
	if n := reg.live.Load(); n > int64(runtime.GOMAXPROCS(0))+1 {
		t.Fatalf("single-goroutine churn registered %d sessions, want <= GOMAXPROCS+1", n)
	}
}

// TestExhaustionSurfacesPromptly is the regression test for the old
// borrow loop, which forced up to 64 garbage collections before
// surfacing exhaustion. The layer may force at most one (plus
// whatever collections happen naturally in a tiny window).
func TestExhaustionSurfacesPromptly(t *testing.T) {
	reg := &capReg{cap: 0} // every registration fails
	s := New(true, reg.register, reg.close)

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := s.TryAcquire()
	elapsed := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if !errors.Is(err, errFull) {
		t.Fatalf("TryAcquire error = %v, want errFull", err)
	}
	if forced := after.NumGC - before.NumGC; forced > 2 {
		t.Fatalf("exhaustion forced %d collections, want <= 2 (one forced + slack)", forced)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("exhaustion took %v to surface, want prompt", elapsed)
	}

	// Acquire must panic with the register error's text, like the
	// structures' explicit Register on overload.
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Acquire on exhausted capacity did not panic")
		}
	}()
	s.Acquire()
}

// TestScavengeStealsParkedEntry pins capacity to 1: once the only
// session is parked under some P's slot, an acquire that misses its
// own slot must steal it rather than fail.
func TestScavengeStealsParkedEntry(t *testing.T) {
	reg := &capReg{cap: 1}
	s := New(true, reg.register, reg.close)
	s.Release(s.Acquire()) // park the only session somewhere

	var wg sync.WaitGroup
	for g := 0; g < 2*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Release(s.Acquire())
			}
		}()
	}
	wg.Wait()
	if n := reg.live.Load(); n != 1 {
		t.Fatalf("live sessions = %d, want 1", n)
	}
}

func TestNoAffinityFallsBackToSpill(t *testing.T) {
	reg := &capReg{cap: 16}
	s := New(false, reg.register, reg.close)
	if s.Capacity() != 0 {
		t.Fatalf("Capacity() = %d with affinity off, want 0", s.Capacity())
	}
	for i := 0; i < 100; i++ {
		e := s.Acquire()
		s.Release(e)
	}
	if n := reg.live.Load(); n < 1 || n > 16 {
		t.Fatalf("live sessions = %d, want in [1, 16]", n)
	}
}

// TestCleanupRetiresDroppedHandles drives enough churn through the
// spill tier that GC cycles drop entries, and asserts their cleanups
// give the sessions back.
func TestCleanupRetiresDroppedHandles(t *testing.T) {
	reg := &capReg{cap: 8}
	s := New(false, reg.register, reg.close) // spill-only: everything is droppable
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e, err := s.TryAcquire()
				if err != nil {
					continue // transient: pool dropped, cleanups lagging
				}
				s.Release(e)
				if i%50 == 0 {
					runtime.GC()
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for reg.live.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still live after churn + GC, want 0", reg.live.Load())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestLastNeverPinsMovedEntry: a slot's last-entry hint names only an
// entry parked in the slot or acquired from it. When Release spills an
// entry because its slot is taken, or scavenge steals it, the hint is
// cleared - otherwise it would keep a dropped spill entry reachable and
// its reclaim cleanup, which gives the session back, could never run.
func TestLastNeverPinsMovedEntry(t *testing.T) {
	reg := &capReg{cap: 4}
	s := New(true, reg.register, reg.close)
	hinted := func() *Entry[*testHandle] {
		t.Helper()
		e := s.Acquire()
		for i := 0; s.slots[e.p].last.Load() != e; i++ {
			if i == 1000 {
				t.Fatal("fast-path acquires never recorded the entry as the slot's last")
			}
			s.Release(e)
			e = s.Acquire()
		}
		return e
	}

	e := hinted()
	p := e.p
	s.Release(e)
	if got := s.scavenge(); got != e {
		t.Fatal("scavenge did not steal the parked entry")
	}
	if s.slots[p].last.Load() == e {
		t.Fatal("scavenge left the stolen entry as its slot's last")
	}
	s.Release(e)

	e = hinted()
	p = e.p
	other := &Entry[*testHandle]{H: &testHandle{id: -1}, p: -1}
	s.slots[p].e.Store(other) // the slot is taken: e must spill
	s.Release(e)
	if s.slots[p].last.Load() == e {
		t.Fatal("Release spilled the entry but left it as its slot's last")
	}
	s.slots[p].e.CompareAndSwap(other, nil)
	e = nil

	// Drop whatever is still parked too, so every entry is unreachable
	// but through the spill pool: each session comes back only once the
	// GC drops its entry and the cleanup runs.
	for i := range s.slots {
		s.slots[i].e.Store(nil)
		s.slots[i].last.Store(nil)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.live.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still live after the spilled entry was dropped, want 0", reg.live.Load())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
