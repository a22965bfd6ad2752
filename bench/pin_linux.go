//go:build linux

package main

import (
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinToOneCPU confines the whole process — callers, daemon, exec
// workers, the Go runtime's own threads — to the lowest CPU it is
// allowed to run on. README.md ("One CPU") has the measurements behind
// it: on the 2-vCPU reference box the guest kernel now and then stacks
// two runnable threads on one vCPU while the other idles, and every
// cross-vCPU wake-up waits for the host to schedule the halted vCPU,
// so a run that uses both measures the host's scheduler (18 % run-to-run
// on job_latency_p50_ms) and a run confined to one does not (2–5 %).
//
// It restricts the calling thread and re-executes the binary, so that
// the new image's runtime starts on one CPU (GOMAXPROCS and every
// thread it creates follow from the inherited mask). It returns only
// when the process is already confined, or with the error that kept it
// from being.
func pinToOneCPU() error {
	var mask [16]uint64 // 1024 CPUs
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return errno
	}
	allowed, lowest := 0, -1
	for i, w := range mask[:n/8] {
		if w != 0 && lowest < 0 {
			lowest = i*64 + bits.TrailingZeros64(w)
		}
		allowed += bits.OnesCount64(w)
	}
	if allowed <= 1 {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	mask = [16]uint64{}
	mask[lowest/64] = 1 << (lowest % 64)
	runtime.LockOSThread() // the thread whose mask is set is the one that calls exec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return errno
	}
	return syscall.Exec(exe, os.Args, os.Environ())
}
