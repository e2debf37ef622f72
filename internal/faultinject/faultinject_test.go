package faultinject

import (
	"sync"
	"testing"
	"time"
)

func TestNoInjectorIsInert(t *testing.T) {
	Uninstall()
	Fire("some.site") // must not panic
	if Fail("some.site") {
		t.Fatal("Fail reported true with no injector installed")
	}
	if active.Load() != nil {
		t.Fatal("an injector is installed after Uninstall")
	}
}

func TestPanicRuleSkipAndCount(t *testing.T) {
	inj := NewInjector(Rule{Site: "s", Skip: 2, Count: 1, Action: ActPanic})
	Install(inj)
	t.Cleanup(Uninstall)

	fire := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		Fire("s")
		return false
	}
	got := []bool{fire(), fire(), fire(), fire(), fire()}
	want := []bool{false, false, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visit %d: panicked=%v, want %v (full: %v)", i+1, got[i], want[i], got)
		}
	}
	if v := inj.Visits("s"); v != 5 {
		t.Fatalf("Visits = %d, want 5", v)
	}
	if tr := inj.Triggered("s"); tr != 1 {
		t.Fatalf("Triggered = %d, want 1", tr)
	}
}

func TestPanicValue(t *testing.T) {
	inj := NewInjector(Rule{Site: "s", Action: ActPanic, PanicValue: "boom"})
	Install(inj)
	t.Cleanup(Uninstall)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	Fire("s")
	t.Fatal("Fire did not panic")
}

func TestDelayRule(t *testing.T) {
	inj := NewInjector(Rule{Site: "s", Action: ActDelay, Delay: 20 * time.Millisecond, Count: 1})
	Install(inj)
	t.Cleanup(Uninstall)
	start := time.Now()
	Fire("s")
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("delayed visit took only %v", d)
	}
	start = time.Now()
	Fire("s") // rule exhausted
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("exhausted rule still delayed: %v", d)
	}
}

// TestDelayWait pins a Delay rule with a Wait: a triggered visit returns
// when Wait does, however long Delay is, and an exhausted rule calls it no
// more.
func TestDelayWait(t *testing.T) {
	release, calls := make(chan struct{}), 0
	Install(NewInjector(Rule{Site: "s", Action: ActDelay, Delay: time.Hour, Count: 1,
		Wait: func() { calls++; <-release }}))
	t.Cleanup(Uninstall)
	done := make(chan struct{})
	go func() { Fire("s"); close(done) }()
	select {
	case <-done:
		t.Fatal("the visit returned before Wait did")
	case <-time.After(5 * time.Millisecond):
	}
	close(release)
	<-done
	Fire("s") // rule exhausted
	if calls != 1 {
		t.Fatalf("Wait ran %d times, want 1", calls)
	}
}

func TestFailRule(t *testing.T) {
	inj := NewInjector(Rule{Site: "alloc", Action: ActFail, Count: 2})
	Install(inj)
	t.Cleanup(Uninstall)
	got := []bool{Fail("alloc"), Fail("alloc"), Fail("alloc")}
	want := []bool{true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Fail visit %d = %v, want %v", i+1, got[i], want[i])
		}
	}
	// Fire never serves Fail rules.
	Fire("alloc")
	if tr := inj.Triggered("alloc"); tr != 2 {
		t.Fatalf("Triggered = %d, want 2", tr)
	}
}

func TestUnlimitedCount(t *testing.T) {
	inj := NewInjector(Rule{Site: "s", Action: ActFail})
	Install(inj)
	t.Cleanup(Uninstall)
	for i := 0; i < 10; i++ {
		if !Fail("s") {
			t.Fatalf("visit %d did not trigger the unlimited rule", i+1)
		}
	}
}

func TestConcurrentVisits(t *testing.T) {
	const workers, per = 8, 1000
	inj := NewInjector(Rule{Site: "s", Skip: 100, Count: 50, Action: ActFail})
	Install(inj)
	t.Cleanup(Uninstall)
	var wg sync.WaitGroup
	var triggered sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := 0
			for i := 0; i < per; i++ {
				if Fail("s") {
					n++
				}
			}
			triggered.Store(w, n)
		}(w)
	}
	wg.Wait()
	total := 0
	triggered.Range(func(_, v any) bool { total += v.(int); return true })
	if total != 50 {
		t.Fatalf("triggered %d times across workers, want exactly 50", total)
	}
	if v := inj.Visits("s"); v != workers*per {
		t.Fatalf("Visits = %d, want %d", v, workers*per)
	}
}

// FuzzRuleAccounting pins the trigger-window arithmetic: for any
// skip/count/visits triple, the number of triggered visits is exactly
// the overlap of the visit sequence with the armed window, and counters
// stay consistent.
func FuzzRuleAccounting(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(5))
	f.Add(uint8(0), uint8(0), uint8(9))
	f.Add(uint8(7), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, skip, count, visits uint8) {
		inj := NewInjector(Rule{Site: "f", Skip: int(skip), Count: int(count), Action: ActFail})
		Install(inj)
		defer Uninstall()
		got := 0
		for i := 0; i < int(visits); i++ {
			if Fail("f") {
				got++
			}
		}
		armed := int(visits) - int(skip)
		if armed < 0 {
			armed = 0
		}
		want := armed
		if count > 0 && want > int(count) {
			want = int(count)
		}
		if got != want {
			t.Fatalf("skip=%d count=%d visits=%d: triggered %d, want %d", skip, count, visits, got, want)
		}
		if v := inj.Visits("f"); v != int(visits) {
			t.Fatalf("Visits = %d, want %d", v, visits)
		}
		if tr := inj.Triggered("f"); tr != got {
			t.Fatalf("Triggered = %d, observed %d", tr, got)
		}
	})
}
