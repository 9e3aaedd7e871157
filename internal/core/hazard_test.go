package core

// White-box tests of node recycling under hazard pointers: what a
// published node is protected from, what a stalled session can pin,
// how much a handle keeps, and that the scan neither loses nor
// duplicates a node.

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scanNow runs h's hazard scan immediately, over every session a
// scheduled scan would read.
func scanNow[T any](h *Handle[T]) {
	h.rec.scan(h.s.hp[:h.s.eng.HighWater()])
}

// TestCloseWithRecyclingReleasesEBRSlot checks that Close releases the
// session's reclamation state with its thread id: with MaxThreads=1 and
// recycling on, churn would exhaust the stack if ids leaked, and a
// closed session's hazard slots are cleared so an idle id pins no node.
func TestCloseWithRecyclingReleasesEBRSlot(t *testing.T) {
	s := New[int64](Options{MaxThreads: 1, Recycle: true})
	for i := 0; i < 5; i++ {
		h := s.Register()
		h.Push(int64(i))
		h.Push(int64(i))
		h.Peek() // publishes the top in slot 0
		s.hp[h.tid].p[1].Store(s.top.Load())
		h.Pop()
		h.Pop()
		tid := h.tid
		h.Close()
		for j := range s.hp[tid].p {
			if p := s.hp[tid].p[j].Load(); p != nil {
				t.Fatalf("round %d: closed session's hazard slot %d still names a node", i, j)
			}
		}
	}
}

// TestCloseRecyclesSlot: under recycling, a session that published a
// node and closed (twice: Close is idempotent) hands its id back, so
// with one id to spare each churn round can register again, and it
// pins nothing afterwards: the survivor pops every node the churned
// sessions published and its scan frees them all.
func TestCloseRecyclesSlot(t *testing.T) {
	s := New[int64](Options{Aggregators: 1, MaxThreads: 2, Recycle: true})
	survivor := s.Register()
	defer survivor.Close()
	var published []*node[int64]
	for i := 0; i < 5; i++ {
		h, err := s.TryRegister()
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		h.Push(int64(i))
		h.Peek() // publishes the top in slot 0
		published = append(published, s.top.Load())
		h.Close()
		h.Close() // idempotent
	}
	for range published {
		if _, ok := survivor.Pop(); !ok {
			t.Fatal("survivor found the stack empty")
		}
	}
	survivor.rec.hp.p[0].Store(nil) // the survivor's own last pop
	scanNow(survivor)
	if len(survivor.rec.retired) != 0 {
		t.Fatalf("%d nodes still retired after the churned sessions closed, want 0", len(survivor.rec.retired))
	}
	for _, n := range published {
		if !slices.Contains(survivor.rec.free, n) {
			t.Fatal("a node a closed session had published was not recycled")
		}
	}
}

// TestRegisterPanicsPastCapacity: with recycling on, the hazard slots
// are sized by MaxThreads, and registering past it panics (TryRegister
// errors) instead of handing out a session with no slot.
func TestRegisterPanicsPastCapacity(t *testing.T) {
	s := New[int64](Options{MaxThreads: 1, Recycle: true})
	if len(s.hp) != 1 {
		t.Fatalf("%d hazard slot pairs, want MaxThreads = 1", len(s.hp))
	}
	s.Register()
	if _, err := s.TryRegister(); err == nil {
		t.Fatal("TryRegister past MaxThreads succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-registration")
		}
	}()
	s.Register()
}

// TestAllocCeilingStalledPeer pins what a stalled session costs the
// others under node recycling. Session a publishes the top and the node
// below it, as a pop combiner descheduled mid-walk would, and stops;
// session b pops both and then runs 100k push/pop pairs. b must keep
// recycling - a small constant number of mallocs over the whole run -
// and a must pin no more than the two nodes it published.
func TestAllocCeilingStalledPeer(t *testing.T) {
	for _, adaptive := range []bool{true, false} {
		s := New[int64](Options{Aggregators: 1, MaxThreads: 4, Recycle: true, Adaptive: adaptive, BatchRecycle: true})
		a, b := s.Register(), s.Register()
		for i := 0; i < 4096; i++ {
			b.Push(int64(i))
			b.Pop()
		}
		b.Push(1)
		b.Push(2)
		top := s.protectTop(&a.rec.hp.p[0])
		below := top.next
		a.rec.hp.p[1].Store(below)
		b.Pop()
		b.Pop()

		const pairs = 100_000
		mallocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < pairs; i++ {
				b.Push(int64(i))
				b.Pop()
			}
		})
		t.Logf("adaptive=%v: %v mallocs over %d push/pop pairs", adaptive, mallocs, pairs)
		if mallocs > 4 {
			t.Errorf("adaptive=%v: %v mallocs over %d push/pop pairs with a stalled peer, want <= 4", adaptive, mallocs, pairs)
		}

		scanNow(b)
		for _, n := range []*node[int64]{top, below} {
			if !slices.Contains(b.rec.retired, n) {
				t.Fatalf("adaptive=%v: a node the stalled session publishes left the retired list", adaptive)
			}
			if slices.Contains(b.rec.free, n) {
				t.Fatalf("adaptive=%v: a node the stalled session publishes is on the free list", adaptive)
			}
		}
		// Besides a's two, only b's own slots may hold a retired node.
		for _, n := range b.rec.retired {
			if n != top && n != below && n != b.rec.hp.p[0].Load() && n != b.rec.hp.p[1].Load() {
				t.Fatalf("adaptive=%v: scan kept a node no session publishes", adaptive)
			}
		}
		if len(b.rec.retired) > 4 {
			t.Fatalf("adaptive=%v: %d retired nodes kept, want a's 2 plus at most b's own 2", adaptive, len(b.rec.retired))
		}
	}
}

// TestStallRetentionBounded: however many nodes stalled peers pin, a
// handle holds at most R retired nodes, R being its scan threshold,
// plus its free-list cap. 40 peers each publish two nodes that a
// working handle then pops. The pinned nodes are never handed out, and
// the kept ones serve allocations before any fresh node is made.
func TestStallRetentionBounded(t *testing.T) {
	const peers = 40
	s := New[int64](Options{Aggregators: 1, MaxThreads: 64, Recycle: true})
	h := s.Register()
	var pinned []*node[int64]
	for i := 0; i < peers; i++ {
		p := s.Register()
		h.Push(int64(2 * i))
		pinned = append(pinned, s.protectTop(&p.rec.hp.p[0]))
		h.Push(int64(2*i + 1))
		n := s.top.Load()
		p.rec.hp.p[1].Store(n)
		pinned = append(pinned, n)
	}
	r := max(scanFloor, 4*s.eng.HighWater())
	check := func(when string) {
		t.Helper()
		if got := len(h.rec.retired); got > r {
			t.Fatalf("%s: %d retired nodes, want <= R = %d", when, got, r)
		}
		if got := len(h.rec.free); got > maxFree {
			t.Fatalf("%s: %d free nodes, want <= %d", when, got, maxFree)
		}
		for _, n := range pinned {
			if slices.Contains(h.rec.free, n) {
				t.Fatalf("%s: a published node is on the free list", when)
			}
		}
	}
	const n = 8 * maxFree
	for i := 0; i < n; i++ {
		h.Push(int64(i))
	}
	for i := 0; i < n+2*peers; i++ {
		if _, ok := h.Pop(); !ok {
			t.Fatalf("pop %d found the stack empty", i)
		}
		check("draining")
	}
	scanNow(h)
	check("after a scan")
	if got := len(h.rec.free); got != maxFree {
		t.Fatalf("free list holds %d nodes after %d pops, want its cap %d", got, n, maxFree)
	}
	for _, p := range pinned {
		if !slices.Contains(h.rec.retired, p) {
			t.Fatal("a published node left the retired list")
		}
	}
	kept := slices.Clone(h.rec.free)
	for range kept {
		h.Push(0)
	}
	for i, p := 0, s.top.Load(); i < len(kept); i, p = i+1, p.next {
		if !slices.Contains(kept, p) {
			t.Fatal("a push allocated a fresh node while kept nodes were free")
		}
	}
}

// TestDrainBesideIdlePeerFreesChain: the retention bound counts
// memory, not just list entries. An idle peer pins the top of an
// n-node stack; a handle drains it, and once the garbage collector has
// run, at most R retired plus maxFree free nodes, the pinned one and
// its successor may still be reachable. Without the scan clearing a
// leaving node's link, the pinned top would keep the whole drained
// chain alive through its next pointers.
func TestDrainBesideIdlePeerFreesChain(t *testing.T) {
	const n = 8192
	s := New[int64](Options{Aggregators: 1, MaxThreads: 4, Recycle: true})
	h, idle := s.Register(), s.Register()
	defer h.Close()
	defer idle.Close()
	for i := 0; i < n; i++ {
		h.Push(int64(i))
	}
	var collected atomic.Int64
	for p := s.top.Load(); p != nil; p = p.next {
		runtime.AddCleanup(p, func(struct{}) { collected.Add(1) }, struct{}{})
	}
	s.protectTop(&idle.rec.hp.p[0])
	for i := 0; i < n; i++ {
		if _, ok := h.Pop(); !ok {
			t.Fatalf("pop %d found the stack empty", i)
		}
	}
	r := max(scanFloor, 4*s.eng.HighWater())
	want := int64(n - r - maxFree - 2)
	deadline := time.Now().Add(5 * time.Second)
	for collected.Load() < want && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got < want {
		t.Fatalf("%d of %d drained nodes collected, want at least %d (at most R=%d retired + %d free + 2 kept alive)",
			got, n, want, r, maxFree)
	}
	runtime.KeepAlive(h)
	runtime.KeepAlive(idle)
}

// TestNoRecycleWhileProtected pins the safety property: a node a reader
// has published is never handed back for reuse while the slot names
// it, however many scans its popper runs; once the reader moves on,
// the next scan frees it.
func TestNoRecycleWhileProtected(t *testing.T) {
	s := New[int64](Options{Aggregators: 1, MaxThreads: 2, Recycle: true})
	reader, writer := s.Register(), s.Register()
	writer.Push(1)
	p := s.protectTop(&reader.rec.hp.p[0])
	if v, ok := writer.Pop(); !ok || v != 1 {
		t.Fatalf("Pop = (%d, %v), want (1, true)", v, ok)
	}
	for i := 0; i < 10*scanFloor; i++ {
		writer.Push(int64(i))
		writer.Pop()
	}
	scanNow(writer)
	if slices.Contains(writer.rec.free, p) || !slices.Contains(writer.rec.retired, p) {
		t.Fatal("node recycled while a reader's hazard slot named it")
	}
	if p.value != 1 {
		t.Fatalf("published node rewritten to %d while protected", p.value)
	}
	reader.rec.hp.p[0].Store(nil)
	scanNow(writer)
	if !slices.Contains(writer.rec.free, p) {
		t.Fatal("node not freed by the first scan after its reader moved on")
	}
}

// TestAllocPrefersFreeList: a node a scan frees serves the next
// allocation, reinitialized; a node the session itself still publishes
// stays retired.
func TestAllocPrefersFreeList(t *testing.T) {
	s := New[int64](Options{Aggregators: 1, MaxThreads: 1, Recycle: true})
	h := s.Register()
	h.Push(1)
	h.Push(2)
	n2 := s.top.Load()
	n1 := n2.next
	h.Pop()
	h.Pop() // h's slot 0 now names n1
	scanNow(h)
	if len(h.rec.retired) != 1 || h.rec.retired[0] != n1 {
		t.Fatal("the node the session publishes did not stay retired")
	}
	if got := h.alloc(9); got != n2 || got.value != 9 || got.next != nil {
		t.Fatal("alloc did not reuse the freed node, reinitialized")
	}
	if len(h.rec.free) != 0 {
		t.Fatalf("free list holds %d nodes after its one node was reused, want 0", len(h.rec.free))
	}
}

// TestAllocFreshWhenEmpty: with nothing on the free list - a new
// handle, or one whose popped nodes are all still retired - alloc makes
// a fresh node rather than reuse one that may still be read.
func TestAllocFreshWhenEmpty(t *testing.T) {
	s := New[int64](Options{Aggregators: 1, MaxThreads: 1, Recycle: true})
	h := s.Register()
	p := h.alloc(7)
	if p == nil || p.value != 7 || p.next != nil {
		t.Fatal("alloc on a new handle did not return a fresh initialized node")
	}
	h.Push(1)
	n1 := s.top.Load()
	h.Pop() // retired, not yet scanned
	if len(h.rec.retired) != 1 || len(h.rec.free) != 0 {
		t.Fatalf("retired=%d free=%d after one pop, want 1 and 0", len(h.rec.retired), len(h.rec.free))
	}
	if got := h.alloc(8); got == n1 || got == p || got.value != 8 {
		t.Fatal("alloc with an empty free list reused a node")
	}
}

// TestRetiredPlusFreeConservation: after popping n nodes (n below the
// free-list cap) every one of them is on the retired list or the free
// list, exactly once.
func TestRetiredPlusFreeConservation(t *testing.T) {
	s := New[int64](Options{Aggregators: 1, MaxThreads: 1, Recycle: true})
	h := s.Register()
	const n = 200
	for i := 0; i < n; i++ {
		h.Push(int64(i))
	}
	var pushed []*node[int64]
	for p := s.top.Load(); p != nil; p = p.next {
		pushed = append(pushed, p)
	}
	for i := 0; i < n; i++ {
		h.Pop()
	}
	held := append(slices.Clone(h.rec.retired), h.rec.free...)
	if len(held) != n {
		t.Fatalf("retired+free = %d, want %d (nodes lost or duplicated)", len(held), n)
	}
	count := map[*node[int64]]int{}
	for _, p := range held {
		count[p]++
	}
	for _, p := range pushed {
		if count[p] != 1 {
			t.Fatalf("a popped node is held %d times, want once", count[p])
		}
	}
}

// TestStressPoisonDetection runs writers that push and pop (some pushes
// through TryPush, whose failures scrub and free their node) against
// readers that Peek, on a recycling stack. Values are unique and never
// 0, so a Peek that returns 0 read a scrubbed node, and a value popped
// twice or lost means a recycled node was re-linked (ABA). Under -race,
// any read of a node being recycled also shows as a data race.
func TestStressPoisonDetection(t *testing.T) {
	const writers, readers = 3, 3
	iters := 20000
	if testing.Short() {
		iters = 4000
	}
	s := New[int64](Options{Aggregators: 2, MaxThreads: writers + readers + 1, Recycle: true, Adaptive: true, BatchRecycle: true})
	popped := make([][]int64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Register()
			defer h.Close()
			for i := 0; i < iters; i++ {
				v := int64(w*iters + i + 1)
				if i%3 != 0 || !h.TryPush(v) {
					h.Push(v)
				}
				if i%2 == 0 {
					if v, ok := h.Pop(); ok {
						popped[w] = append(popped[w], v)
					}
				}
			}
		}(w)
	}
	var bad sync.Once
	var badV int64 = -1
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := s.Register()
			defer h.Close()
			for i := 0; i < iters; i++ {
				if v, ok := h.Peek(); ok && (v < 1 || v > writers*int64(iters)) {
					bad.Do(func() { badV = v })
				}
			}
		}()
	}
	wg.Wait()
	if badV != -1 {
		t.Fatalf("Peek returned %d, a value never pushed", badV)
	}
	h := s.Register()
	var all []int64
	for _, p := range popped {
		all = append(all, p...)
	}
	for {
		v, ok := h.Pop()
		if !ok {
			break
		}
		all = append(all, v)
	}
	want := writers * iters
	slices.Sort(all)
	if distinct := len(slices.Compact(slices.Clone(all))); len(all) != want || distinct != want {
		t.Fatalf("popped %d values (%d distinct), want each of %d exactly once", len(all), distinct, want)
	}
}
