package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The benchmark times host work in CPU time, not wall time: on a shared
// virtual machine the wall clock also counts time the hypervisor gives
// to other tenants, which moved whole runs by a quarter, while this
// single-worker program's CPU time stayed within a few percent. On an
// idle host the two agree.

const (
	clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTimeID  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// processCPU is the CPU time of every thread of the process so far.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }

// threadCPU is the calling thread's CPU time so far. Callers lock the
// goroutine to its thread around the interval they measure.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTimeID) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock id and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}
