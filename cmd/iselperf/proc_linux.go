package main

import "syscall"

// daemonProcAttr makes the kernel kill a daemon if iselperf dies without
// stopping it, so no daemon outlives a crashed or killed benchmark.
func daemonProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
