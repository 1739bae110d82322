package sim

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// periodicRun builds one seeded event population on a fresh engine, with
// a periodic source either pre-scheduled as n Schedule calls (lazy false)
// or as one SchedulePeriodic (lazy true), runs it and returns the firing
// order. The other events are drawn from the same stream in both modes:
// some are scheduled before the source and some after, handlers (the
// source's included) schedule more, and about half of all times sit
// exactly on an occurrence, so (when, seq) ties decide the order.
func periodicRun(seed uint64, lazy bool) (order []string, fired uint64) {
	r := rand.New(rand.NewPCG(seed, 0x9e71))
	e := NewEngine()
	start := Time(r.IntN(4)) * Millisecond
	period := Time(r.IntN(4)) * Millisecond // 0 stacks every occurrence at start
	n := 1 + r.IntN(40)
	occ := func(k int) Time { return start + Time(k)*period }

	// pick returns a time ≥ now, on an occurrence half of the time.
	pick := func() Time {
		if r.IntN(2) == 0 {
			if at := occ(r.IntN(n + 1)); at >= e.Now() {
				return at
			}
		}
		return e.Now() + Time(r.IntN(int(occ(n)-start+2*Millisecond)))
	}
	id := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		me := id
		id++
		e.Schedule(pick(), func() {
			order = append(order, fmt.Sprintf("e%d@%d", me, e.Now()))
			if depth < 3 {
				for c := r.IntN(3); c > 0; c-- {
					spawn(depth + 1)
				}
			}
		})
	}
	occurrence := func(i int) {
		order = append(order, fmt.Sprintf("p%d@%d", i, e.Now()))
		for c := r.IntN(3); c > 0; c-- {
			spawn(2)
		}
	}

	for c := r.IntN(8); c > 0; c-- {
		spawn(0)
	}
	if lazy {
		e.SchedulePeriodic(start, period, n, occurrence)
	} else {
		for i := 0; i < n; i++ {
			i := i
			e.Schedule(occ(i), func() { occurrence(i) })
		}
	}
	for c := r.IntN(8); c > 0; c-- {
		spawn(0)
	}
	// Stop partway and resume, so RunUntil's head check sees the source.
	e.RunUntil(occ(n / 2))
	e.Run()
	return order, e.EventsFired()
}

func TestSchedulePeriodicMatchesPreScheduling(t *testing.T) {
	for seed := uint64(0); seed < 500; seed++ {
		want, wantFired := periodicRun(seed, false)
		got, gotFired := periodicRun(seed, true)
		if gotFired != wantFired {
			t.Fatalf("seed %d: fired %d events, pre-scheduled fired %d", seed, gotFired, wantFired)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d is %s, pre-scheduled fired %s", seed, i, got[i], want[i])
			}
		}
	}
}

func TestSchedulePeriodicStaysBounded(t *testing.T) {
	const n = 10000
	e := NewEngine()
	next := 0
	e.SchedulePeriodic(Second, Millisecond, n, func(i int) {
		if i != next || e.Now() != Second+Time(i)*Millisecond {
			t.Fatalf("occurrence %d at %v, want %d at %v", i, e.Now(), next, Second+Time(next)*Millisecond)
		}
		next++
		if e.Len() > 1 {
			t.Fatalf("occurrence %d: %d pending events, want ≤ 1", i, e.Len())
		}
	})
	if e.Len() != 1 {
		t.Fatalf("Len() = %d after SchedulePeriodic, want 1", e.Len())
	}
	e.Run()
	if next != n || e.EventsFired() != n {
		t.Fatalf("ran %d occurrences (%d events), want %d", next, e.EventsFired(), n)
	}
	if e.TimerSlabs() != 1 {
		t.Fatalf("TimerSlabs() = %d, want 1", e.TimerSlabs())
	}
}

func TestSchedulePeriodicReservesSequenceNumbers(t *testing.T) {
	e := NewEngine()
	e.SchedulePeriodic(0, Second, 3, func(int) {})
	if e.seq != 3 {
		t.Fatalf("seq = %d after a 3-occurrence source, want 3", e.seq)
	}
	for _, n := range []int{0, -3} {
		e.SchedulePeriodic(0, Second, n, func(int) {})
		if e.seq != 3 || e.Len() != 1 {
			t.Fatalf("n=%d: seq %d, Len %d; want a no-op (3, 1)", n, e.seq, e.Len())
		}
	}
}

func TestSchedulePeriodicPanics(t *testing.T) {
	cases := []struct {
		name          string
		start, period Time
		fn            func(int)
	}{
		{"nil callback", Second, Second, nil},
		{"start before now", 0, Second, func(int) {}},
		{"negative period", Second, -Millisecond, func(int) {}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			e.Schedule(Second, func() {})
			e.Run()
			defer func() {
				if recover() == nil {
					t.Errorf("SchedulePeriodic(%v, %v, 1, fn) at now %v did not panic", c.start, c.period, e.Now())
				}
			}()
			e.SchedulePeriodic(c.start, c.period, 1, c.fn)
		})
	}
}
