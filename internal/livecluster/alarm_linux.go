package livecluster

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfd is a non-blocking CLOCK_MONOTONIC timerfd registered with the
// runtime's netpoller through os.NewFile. A sleep costs two system calls
// (timerfd_settime, one read), and so does a tick forwarded to the host:
// the host's settime and the helper's read.
//
// Both waits run inside RawConn.Read, which clears the poller's readiness
// flag once, calls the step, and while the step returns false parks until
// the descriptor turns readable and calls it again. Readiness raised after
// the flag was cleared is kept until consumed, which is what lets the steps
// skip every read whose only possible answer is EAGAIN.
type timerfd struct {
	file *os.File
	rc   syscall.RawConn
	fd   uintptr // for settime by the owner, who is also the one to close

	// sleep's state; the step is built once so a sleep allocates nothing.
	d         time.Duration // the delay still to be set
	err       error
	sleepStep func(fd uintptr) bool
}

// newKernelTimer returns nil when the kernel refuses a timerfd (descriptor
// exhaustion, a seccomp filter); the alarm then runs on runtime timers.
func newKernelTimer() kernelTimer {
	const (
		clockMonotonic = 1
		flags          = syscall.O_NONBLOCK | syscall.O_CLOEXEC // TFD_NONBLOCK | TFD_CLOEXEC
	)
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, flags, 0)
	if errno != 0 {
		return nil
	}
	// NewFile finds the descriptor non-blocking and hands it to the poller.
	file := os.NewFile(fd, "timerfd")
	rc, err := file.SyscallConn()
	if err != nil {
		file.Close()
		return nil
	}
	k := &timerfd{file: file, rc: rc, fd: fd}
	k.sleepStep = func(fd uintptr) bool {
		if k.d > 0 {
			// Arm inside the step — after the flag was cleared — so an expiry
			// that beats the park still ends it; nothing is readable yet.
			k.err = settime(fd, k.d)
			k.d = 0
			return k.err != nil
		}
		var fired bool
		fired, k.err = consume(fd)
		return fired || k.err != nil
	}
	return k
}

// consume reads the expiry count off a timerfd; false means the timer has
// not fired since it was last set or read.
func consume(fd uintptr) (bool, error) {
	var count [8]byte
	for {
		_, _, errno := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&count)), uintptr(len(count)))
		switch errno {
		case 0:
			return true, nil
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false, nil
		}
		return false, errno
	}
}

// settime arms the one-shot timer d from now, replacing any pending expiry
// and zeroing an unread one.
func settime(fd uintptr, d time.Duration) error {
	if d <= 0 {
		d = 1 // a zero it_value would disarm
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		return errno
	}
	return nil
}

func (k *timerfd) sleep(d time.Duration) error {
	k.d, k.err = d, nil
	if err := k.rc.Read(k.sleepStep); err != nil {
		return err
	}
	return k.err
}

func (k *timerfd) set(d time.Duration) error { return settime(k.fd, d) }

func (k *timerfd) forward(fire func()) {
	// One Read for the helper's whole life: the flag is never cleared between
	// expiries, so a set racing the previous read cannot lose its wake-up.
	// The timer is one-shot, so after a successful read the next expiry needs
	// a set and raises readiness anew — park at once.
	k.rc.Read(func(fd uintptr) bool {
		fired, err := consume(fd)
		if fired {
			fire()
		}
		return err != nil
	})
}

func (k *timerfd) close() { k.file.Close() }
