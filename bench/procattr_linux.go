package main

import "syscall"

// childAttr makes the kernel kill a child process when the parent dies,
// so no workload outlives a killed benchmark run.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
