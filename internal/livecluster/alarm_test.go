package livecluster

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"rtsads/internal/workload"
)

// alarmKinds is every alarm this platform can run: the kernel timer where
// there is one, and the runtime-timer stand-in every other platform gets.
func alarmKinds() map[string]func() kernelTimer {
	kinds := map[string]func() kernelTimer{"runtime": func() kernelTimer { return nil }}
	if kt := newKernelTimer(); kt != nil {
		kt.close()
		kinds["kernel"] = newKernelTimer
	}
	return kinds
}

// kernelTimerOrSkip opens a kernel timer, closed with the test, or skips.
func kernelTimerOrSkip(t *testing.T) kernelTimer {
	t.Helper()
	kt := newKernelTimer()
	if kt == nil {
		t.Skip("no kernel timer on this platform")
	}
	t.Cleanup(kt.close)
	return kt
}

// TestAlarmSleepOvershoot: sleeps a few hundred wall microseconds long end
// within 400 µs of their target at p90. On runtime timers the same sleeps
// overshoot by ≈1.1 ms at the median — the defect the alarm removes.
func TestAlarmSleepOvershoot(t *testing.T) {
	a := &alarm{kt: kernelTimerOrSkip(t)}
	const n, limit = 200, 400 * time.Microsecond
	onQuietBox(t, func() error {
		over := make([]time.Duration, n)
		for i := range over {
			d := time.Duration(100+3*i/2) * time.Microsecond // 100–400 µs
			t0 := time.Now()
			a.sleep(d)
			over[i] = time.Since(t0) - d
			if over[i] < 0 {
				t.Fatalf("sleep(%v) returned %v early", d, -over[i])
			}
		}
		sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
		t.Logf("overshoot of %d sleeps: p50 %v, p90 %v, max %v", n, over[n/2], over[n*9/10], over[n-1])
		if p90 := over[n*9/10]; p90 >= limit {
			return fmt.Errorf("p90 overshoot %v, want under %v", p90, limit)
		}
		return nil
	})
}

// TestAlarmSleepAllocatesNothing: the worker sleeps once per job.
func TestAlarmSleepAllocatesNothing(t *testing.T) {
	for name, mk := range alarmKinds() {
		a := &alarm{kt: mk()}
		if got := testing.AllocsPerRun(50, func() { a.sleep(10 * time.Microsecond) }); got != 0 {
			t.Errorf("%s: %v allocations per sleep", name, got)
		}
		if a.kt != nil {
			a.kt.close()
		}
	}
}

// ticked reports whether the alarm ticks within d.
func ticked(a *alarm, d time.Duration) bool {
	select {
	case <-a.tick:
		return true
	case <-time.After(d):
		return false
	}
}

// TestAlarmArm walks the ticking alarm through what the host loop does to
// it. The quiet windows are wide (the real timer underneath may run a
// millisecond late, a shared box tens); the orders of events are exact.
func TestAlarmArm(t *testing.T) {
	const ms = time.Millisecond
	for name, mk := range alarmKinds() {
		for _, tc := range []struct {
			name string
			run  func(a *alarm) error
		}{
			{"fires once", func(a *alarm) error {
				a.arm(ms)
				if !ticked(a, 200*ms) {
					return fmt.Errorf("armed 1ms, no tick in 200ms")
				}
				if ticked(a, 20*ms) {
					return fmt.Errorf("one-shot alarm ticked twice")
				}
				return nil
			}},
			{"re-arm earlier", func(a *alarm) error {
				a.arm(10 * time.Second)
				a.arm(ms)
				if !ticked(a, 200*ms) {
					return fmt.Errorf("re-armed from 10s to 1ms, no tick in 200ms")
				}
				return nil
			}},
			{"re-arm later", func(a *alarm) error {
				a.arm(5 * ms)
				a.arm(300 * ms)
				t0 := time.Now()
				if !ticked(a, 2*time.Second) {
					return fmt.Errorf("re-armed to 300ms, no tick in 2s")
				}
				if e := time.Since(t0); e < 290*ms {
					return fmt.Errorf("re-armed from 5ms to 300ms, ticked after %v: the earlier setting survived", e)
				}
				return nil
			}},
			{"delivered tick dropped by arm", func(a *alarm) error {
				a.arm(ms)
				time.Sleep(30 * ms) // fires; nobody takes the tick
				a.arm(10 * time.Second)
				if ticked(a, 50*ms) {
					return fmt.Errorf("arm left the previous setting's tick pending")
				}
				return nil
			}},
			{"closed while armed", func(a *alarm) error {
				a.arm(20 * ms)
				a.close()
				if ticked(a, 100*ms) {
					return fmt.Errorf("tick after close")
				}
				return nil
			}},
		} {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				a := newTickingAlarm(mk())
				defer a.close() // a second close is harmless
				if err := tc.run(a); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestWaitToleratesStaleTick: a tick of an earlier setting that reaches the
// host after it armed again ends that wait early and nothing else — the loop
// re-evaluates and waits again, to the same instant.
func TestWaitToleratesStaleTick(t *testing.T) {
	clock, err := NewClock(1)
	if err != nil {
		t.Fatal(err)
	}
	for name, mk := range alarmKinds() {
		r := &runState{
			c:     &Cluster{stop: make(chan struct{})},
			clock: clock,
			alarm: newTickingAlarm(mk()),
		}
		until := clock.Now().Add(40 * time.Millisecond)
		go func() {
			time.Sleep(5 * time.Millisecond)
			r.alarm.fire() // what the helper does with an expiry it read late
		}()
		r.wait(until)
		if early := clock.Now(); !early.Before(until) {
			t.Logf("%s: the stale tick did not end the first wait (box stalled?)", name)
		}
		waits := 1
		for clock.Now().Before(until) {
			r.wait(until)
			waits++
		}
		if late := clock.Now().Sub(until); late > wallSlop {
			t.Errorf("%s: %d waits ended %v past the instant they were armed for", name, waits, late)
		}
		r.alarm.close()
	}
}

// openFDs counts this process's descriptors (-1 where /proc has no answer).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestRunReleasesAlarm: the host's alarm — a descriptor and a helper
// goroutine — goes when Run returns. Worker sleeps draw on a shared pool
// sized by how many sleep at once, so the allowance is one run's worth, not
// a hundred.
func TestRunReleasesAlarm(t *testing.T) {
	p := liveParams(2)
	p.NumTransactions = 4
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		c, err := New(Config{Workload: w, Scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the sleeper pool
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	for i := 0; i < 100; i++ {
		run()
	}
	// Worker goroutines exit on their own shortly after Close returns.
	for i := 0; i < 100 && runtime.NumGoroutine() > goroutines; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("%d goroutines after 100 runs, %d before", got, goroutines)
	}
	const pool = 4 // two workers' sleepers, twice over
	if got := openFDs(); got > fds+pool {
		t.Errorf("%d descriptors after 100 runs, %d before", got, fds)
	}
}

// TestShortJobsServedBackToBack is the defect in one queue: eight jobs of
// 80 µs virtual (400 µs wall at Scale 5), each with 60 µs virtual of slack.
// On runtime timers the first sleep ends a millisecond late, its job misses,
// and the two behind it have expired by the time the worker reaches them.
func TestShortJobsServedBackToBack(t *testing.T) {
	kernelTimerOrSkip(t) // the worker's sleeps need one
	const (
		n     = 8
		scale = 5
		cost  = 80 * time.Microsecond
		slack = 300 * time.Microsecond / scale // 300 µs wall
	)
	w, err := workload.Generate(liveParams(1))
	if err != nil {
		t.Fatal(err)
	}
	onQuietBox(t, func() (err error) {
		clock, _ := NewClock(scale)
		jobs := newReadyQueue()
		done := make(chan Done, n)
		go NewWorker(0, clock, w).Run(jobs, done)
		defer jobs.close()
		ready := clock.Now()
		for i := 0; i < n; i++ {
			target := ready.Add(time.Duration(i+1) * cost)
			jobs.push(Job{Task: int32(i), Txn: w.Tasks[0].Payload, Proc: cost, Deadline: target.Add(slack), Ready: ready})
		}
		for i := 0; i < n; i++ {
			d := <-done
			target := ready.Add(time.Duration(i+1) * cost)
			switch {
			case d.Err != "":
				t.Fatalf("job %d: %+v", i, d)
			case d.Expired:
				err = fmt.Errorf("job %d expired at the queue head, %v past its target", i, d.Start.Sub(target))
			case d.Finish.After(target.Add(slack)):
				err = fmt.Errorf("job %d finished %v virtual past its target, want within %v", i, d.Finish.Sub(target), slack)
			}
		}
		return err
	})
}
