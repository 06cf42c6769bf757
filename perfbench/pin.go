package main

import (
	"errors"
	"fmt"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs returns the CPUs this process may run on, in ascending order.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, &m); err != nil {
		return nil, err
	}
	var cpus []int
	for cpu := 0; cpu < len(m)*64; cpu++ {
		if m[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	if len(cpus) == 0 {
		return nil, errors.New("sched_getaffinity: empty CPU set")
	}
	return cpus, nil
}

// startPinned starts cmd with every thread of it bound to one CPU. A child
// inherits the CPU mask of the thread that forks it, so the fork happens
// on an OS thread locked to this goroutine whose mask is narrowed first and
// restored after. (The thread must live on: the child's Pdeathsig fires
// when the thread that forked it exits.)
func startPinned(cmd *exec.Cmd, cpu int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var old, m cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, &old); err != nil {
		return err
	}
	m[cpu/64] |= 1 << (cpu % 64)
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, &m); err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		// The start error is the one to report; a mask left narrow only
		// pins this thread's later work.
		_ = affinity(syscall.SYS_SCHED_SETAFFINITY, &old)
		return err
	}
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, &old); err != nil {
		// The caller gets no process to wait for, so stop it here; its
		// kill and exit status add nothing to the error.
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return err
	}
	return nil
}

// affinity gets or sets the calling thread's CPU mask.
func affinity(trap uintptr, m *cpuMask) error {
	if _, _, e := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return fmt.Errorf("sched affinity: %v", e)
	}
	return nil
}
