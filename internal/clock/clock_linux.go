//go:build linux

package clock

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfd is the Linux wake source: a non-blocking CLOCK_MONOTONIC
// timerfd, read through the netpoller (os.NewFile makes a non-blocking
// descriptor pollable), so the goroutine parked in wait is woken by
// epoll when the kernel's timer expires, not by a runtime timer.
type timerfd struct {
	f   *os.File
	fd  uintptr
	buf [8]byte // the expiry count a read returns; unused
}

// newSource makes a timerfd, or a runtime timer if the kernel refuses
// one (out of descriptors, say): late wakes beat none.
func newSource() source {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newTimerSource()
	}
	return &timerfd{f: os.NewFile(fd, "timerfd"), fd: fd}
}

// arm sets the timer's one expiry d from now (relative, so it fires no
// sooner than d after this call) and clears an expiry not yet read. The
// Clock never arms a closed source, and d is positive, so the call
// cannot fail.
func (t *timerfd) arm(d time.Duration) {
	its := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))} // {interval: 0, value: d}
	_, _, _ = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0)
}

func (t *timerfd) wait() bool {
	_, err := t.f.Read(t.buf[:])
	return err == nil
}

func (t *timerfd) close() { _ = t.f.Close() } // nothing was written: a close error loses nothing
