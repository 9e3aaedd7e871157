package ebstack

// White-box tests for the elimination exchanger: the single-CAS-point
// claim/withdraw protocol is where a subtle race would duplicate or
// lose a pushed value (an earlier draft of this package had exactly
// that bug - withdrawal through the slot pointer raced with a claim
// through the offer - so these tests pin the protocol directly).

import (
	"sync"
	"testing"
)

func TestExchangeTimesOutAlone(t *testing.T) {
	var e exchanger[int64]
	of := &offer[int64]{isPush: true, value: 7}
	if _, ok := e.exchange(of, 4); ok {
		t.Fatal("lone push exchanged with nobody")
	}
	// After a withdrawal the slot must be reusable.
	if e.slot.Load() != nil && e.slot.Load().claimed.Load() == nil {
		t.Fatal("slot left holding a live offer after timeout")
	}
}

func TestExchangeSameTypeRefused(t *testing.T) {
	var e exchanger[int64]
	done := make(chan bool)
	go func() {
		// Wait until claimed: a patience of a few milliseconds could run
		// out while this test goroutine is descheduled, withdrawing the
		// offer before the loop below ever sees it.
		of := &offer[int64]{isPush: true, value: 1}
		_, ok := e.exchange(of, 1<<40)
		done <- ok
	}()
	// Wait until the first push has installed itself.
	for e.slot.Load() == nil {
	}
	of2 := &offer[int64]{isPush: true, value: 2}
	if _, ok := e.exchange(of2, 4); ok {
		t.Fatal("push exchanged with push")
	}
	// Unblock the waiter by having a pop take it.
	pop := &offer[int64]{isPush: false}
	if v, ok := e.exchange(pop, 1<<16); !ok || v != 1 {
		t.Fatalf("pop exchange = (%d, %v), want (1, true)", v, ok)
	}
	if !<-done {
		t.Fatal("waiting push was claimed but reported failure")
	}
}

func TestExchangePairTransfersValue(t *testing.T) {
	var e exchanger[int64]
	var got int64
	var gotOK bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		of := &offer[int64]{isPush: true, value: 42}
		for {
			if _, ok := e.exchange(of, 1<<12); ok {
				return
			}
			of = &offer[int64]{isPush: true, value: 42}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			of := &offer[int64]{isPush: false}
			if v, ok := e.exchange(of, 1<<12); ok {
				got, gotOK = v, ok
				return
			}
		}
	}()
	wg.Wait()
	if !gotOK || got != 42 {
		t.Fatalf("pop received (%d, %v), want (42, true)", got, gotOK)
	}
}

// TestExchangeNoDuplicationUnderRaces hammers one exchanger with
// pushes and pops and verifies the fundamental exactly-once property:
// every pushed value is received by at most one pop, and a push that
// reports failure has NOT had its value consumed.
func TestExchangeNoDuplicationUnderRaces(t *testing.T) {
	var e exchanger[int64]
	const (
		pushers = 4
		poppers = 4
		perG    = 5000
	)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		delivered = make(map[int64]int) // value -> times exchanged (push side)
		received  = make(map[int64]int) // value -> times received (pop side)
	)
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ok2 := make(map[int64]int)
			for i := 0; i < perG; i++ {
				v := int64(p)<<32 | int64(i)
				of := &offer[int64]{isPush: true, value: v}
				if _, ok := e.exchange(of, 64); ok {
					ok2[v]++
				}
			}
			mu.Lock()
			for v, c := range ok2 {
				delivered[v] += c
			}
			mu.Unlock()
		}(p)
	}
	for p := 0; p < poppers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make(map[int64]int)
			for i := 0; i < perG; i++ {
				of := &offer[int64]{isPush: false}
				if v, ok := e.exchange(of, 64); ok {
					got[v]++
				}
			}
			mu.Lock()
			for v, c := range got {
				received[v] += c
			}
			mu.Unlock()
		}()
	}
	wg.Wait()

	for v, c := range received {
		if c != 1 {
			t.Fatalf("value %d received %d times", v, c)
		}
		if delivered[v] != 1 {
			t.Fatalf("value %d received but its push reported %d successes", v, delivered[v])
		}
	}
	for v, c := range delivered {
		if c != 1 || received[v] != 1 {
			t.Fatalf("push of %d succeeded %d times but was received %d times", v, c, received[v])
		}
	}
}
