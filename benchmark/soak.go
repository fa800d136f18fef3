package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// A virtual CPU that goes idle halts, and how long the host takes to
// run it again varies over seconds by more than any bound this
// benchmark sets: on the sizing host the same open-loop round read
// p50 4.3 ms or 5.8 ms depending on when it ran. So for the length of
// a run the benchmark keeps every CPU from halting with one soaker
// process per CPU, scheduled SCHED_IDLE: it runs only when nothing
// else wants the CPU and is preempted the moment anything does, so it
// takes no time from the program, and being another process its CPU
// time is not in the program's.

const schedIdle = 5 // SCHED_IDLE, <linux/sched.h>

var soakSink uint64

// soak is the soaker process's whole life: drop to SCHED_IDLE, spin,
// and exit when the parent is gone.
func soak() {
	runtime.LockOSThread()
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		// Spinning at normal priority would take CPU from the program.
		fatal(fmt.Errorf("soaker: sched_setscheduler(SCHED_IDLE): %v", errno))
	}
	parent := os.Getppid()
	for os.Getppid() == parent {
		for i := 0; i < 1<<20; i++ {
			soakSink += uint64(i)
		}
	}
}

// startSoakers starts one soaker per CPU and returns the function that
// kills them and waits until each has ended. A host that refuses is
// left as it is: the run goes on, noisier.
func startSoakers() (stop func()) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: no soakers:", err)
		return func() {}
	}
	var cmds []*exec.Cmd
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, "-soak")
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1", "GOGC=off")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: soaker did not start:", err)
			continue
		}
		cmds = append(cmds, cmd)
	}
	return func() {
		for _, cmd := range cmds {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
}
