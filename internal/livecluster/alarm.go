package livecluster

import "time"

// alarm is the one timer under every wait of the live path: Clock.SleepUntil
// (worker occupancy, the router's arrival pump) blocks in sleep, the host
// loop arms it and selects on tick.
//
// It exists because a runtime timer is only as fine as the sleep of whichever
// thread is parked in the netpoller, and Go hands epoll_wait whole
// milliseconds: time.Sleep(100µs) returns after ≈1.1 ms on Linux. A kernel
// timer's expiry is an hrtimer interrupt that makes a descriptor readable, so
// the waiting goroutine is woken like one blocked on a socket — within tens
// of microseconds, no thread blocked, no P held. Where the platform has no
// such timer (or refuses one) kt is nil and runtime timers stand in; nothing
// selects between the two but what newKernelTimer returns.
//
// The zero alarm sleeps on runtime timers; one that ticks comes from
// newTickingAlarm.
type alarm struct {
	kt kernelTimer

	// Ticking alarms only (newTickingAlarm).
	tick   chan struct{} // expiries of arm, coalesced
	t      *time.Timer   // arm's stand-in when kt is nil
	helper chan struct{} // closed once the goroutine forwarding kt's expiries has exited
}

// kernelTimer is a one-shot relative timer whose expiry parks no thread.
// One goroutine at a time uses sleep or set; forward runs beside set.
type kernelTimer interface {
	// sleep blocks the caller for d.
	sleep(d time.Duration) error
	// set replaces the pending expiry with one d from now.
	set(d time.Duration) error
	// forward calls fire after each expiry of set and returns once closed.
	forward(fire func())
	close()
}

// sleep blocks the calling goroutine for d.
func (a *alarm) sleep(d time.Duration) {
	if a.kt == nil || a.kt.sleep(d) != nil {
		time.Sleep(d)
	}
}

// newTickingAlarm returns an alarm on kt (nil: runtime timers) whose arm
// delivers on tick. With a kernel timer one helper goroutine forwards
// expiries; close stops it.
func newTickingAlarm(kt kernelTimer) *alarm {
	a := &alarm{kt: kt, tick: make(chan struct{}, 1)}
	if kt != nil {
		a.helper = make(chan struct{})
		go func() {
			defer close(a.helper)
			a.kt.forward(a.fire)
		}()
	}
	return a
}

func (a *alarm) fire() {
	select {
	case a.tick <- struct{}{}:
	default:
	}
}

// arm sets the alarm's single expiry to d from now, replacing any earlier
// setting, and drops a tick already delivered. It never disarms: an owner
// woken early by something else simply arms again, and an expiry of the
// earlier setting that slips through in between reaches tick as a spurious
// wake-up — owners re-evaluate on every wake.
func (a *alarm) arm(d time.Duration) {
	select {
	case <-a.tick:
	default:
	}
	if a.kt != nil && a.kt.set(d) == nil {
		return
	}
	if a.t == nil {
		a.t = time.AfterFunc(d, a.fire)
	} else {
		a.t.Reset(d)
	}
}

// close releases the timer and returns once the helper goroutine has exited.
func (a *alarm) close() {
	if a.t != nil {
		a.t.Stop()
	}
	if a.kt != nil {
		a.kt.close()
	}
	if a.helper != nil {
		<-a.helper
	}
}
