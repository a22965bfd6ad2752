//go:build !linux

package main

import "runtime"

// pinToOneCPU: without a portable way to set the process's CPU mask,
// the closest thing is one running goroutine at a time.
func pinToOneCPU() error {
	runtime.GOMAXPROCS(1)
	return nil
}
