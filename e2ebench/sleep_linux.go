package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pinPacer locks the calling goroutine to its thread and sets the
// thread's timer slack to 1ns, so sleepUntil wakes within microseconds
// instead of the default 50µs slack. The caller must be a goroutine
// that exits without unlocking: the runtime then retires the thread
// rather than reusing it with the changed slack.
func pinPacer() {
	runtime.LockOSThread()
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort
}

// sleepUntil blocks until t. The runtime's timers wake sub-millisecond
// sleeps up to a millisecond late, which at 2k req/s would make the
// generator itself the largest part of the latency it measures; a raw
// nanosleep wakes within the thread's timer slack.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
