package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement. The instance gets one CPU to itself and everything else
// (load generator, dpictl, mboxd) shares the remaining ones, so a result
// does not depend on which threads the kernel happened to co-schedule.
// On a two-CPU machine that choice alone moved run-to-run spread by
// several points.

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) set(c int)      { m[c/64] |= 1 << (c % 64) }
func (m *cpuMask) has(c int) bool { return m[c/64]&(1<<(c%64)) != 0 }

func setAffinity(tid int, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

func getAffinity(m *cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// placement is the CPU split of a run; the zero value pins nothing.
type placement struct {
	instance, others *cpuMask
}

// planPlacement reserves the highest allowed CPU for the instance, moves
// every thread of this process onto the others, and returns the split.
// Without permission to set affinity it returns the zero placement and
// the run proceeds unpinned.
func planPlacement() (placement, error) {
	var allowed cpuMask
	if err := getAffinity(&allowed); err != nil {
		return placement{}, err
	}
	var inst, rest cpuMask
	last := -1
	for c := 0; c < 64*len(allowed); c++ {
		if allowed.has(c) {
			last = c
		}
	}
	n := 0
	for c := 0; c < last; c++ {
		if allowed.has(c) {
			rest.set(c)
			n++
		}
	}
	if n == 0 {
		return placement{}, fmt.Errorf("only one CPU allowed")
	}
	inst.set(last)
	// Threads started from now on inherit their creator's mask, so moving
	// the existing ones moves the process.
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return placement{}, err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, &rest); err != nil && err != syscall.ESRCH {
			return placement{}, err
		}
	}
	return placement{instance: &inst, others: &rest}, nil
}

// startPinned runs start on a thread confined to m, so the child it
// forks — and every thread of that child — inherits the mask.
func startPinned(m, back *cpuMask, start func() error) error {
	if m == nil {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, m); err != nil {
		return err
	}
	defer setAffinity(0, back) //nolint:errcheck // the mask was valid a moment ago
	return start()
}
