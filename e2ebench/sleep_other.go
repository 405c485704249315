//go:build !linux

package main

import "time"

// pinPacer is a no-op where the timer slack cannot be set.
func pinPacer() {}

// sleepUntil blocks until t.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
