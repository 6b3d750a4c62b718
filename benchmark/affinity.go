package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement for the wire workloads. On a box with as few processors
// as this one, a load generator and a server left to the scheduler take
// each other's processor in turns, and throughput reads the scheduler's
// mood: 80k to 110k ops/s from one second to the next on wire-pipelined.
// With the generator confined to one processor and the server to another
// the same commit reads 150k ops/s and the seconds agree within a tenth.

// cpuMask is a sched_setaffinity mask of 1024 processors.
type cpuMask [16]uint64

func (m *cpuMask) cpus() []int {
	var out []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func maskOf(cpu int) (m cpuMask) {
	m[cpu/64] = 1 << (cpu % 64)
	return m
}

// threadAffinity reads the processors thread tid (0: the calling
// thread) may run on.
func threadAffinity(tid int) (m cpuMask, err error) {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, fmt.Errorf("sched_getaffinity(%d): %w", tid, errno)
	}
	return m, nil
}

// setThreadAffinity confines thread tid (0: the calling thread) to m.
// Threads and processes it creates afterwards inherit the mask.
func setThreadAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// setProcessAffinity confines every thread this process has to m. Two
// passes: a thread born during the first inherited either mask, and the
// second catches it.
func setProcessAffinity(m cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := setThreadAffinity(tid, m); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
		}
	}
	return nil
}

// splitProcessors gives the load generator and the server a processor
// each: it confines this process, with GOMAXPROCS 1, to the first
// processor it may run on and returns the second for the server, and a
// function that undoes both. With fewer than two processors to split it
// does nothing and returns -1: the server then runs wherever the
// scheduler puts it.
func splitProcessors() (serverCPU int, restore func(), err error) {
	old, err := threadAffinity(0)
	if err != nil {
		return -1, nil, err
	}
	cpus := old.cpus()
	if len(cpus) < 2 {
		return -1, func() {}, nil
	}
	if err := setProcessAffinity(maskOf(cpus[0])); err != nil {
		return -1, nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	return cpus[1], func() {
		runtime.GOMAXPROCS(procs)
		setProcessAffinity(old)
	}, nil
}
