package main

import "syscall"

// childAttr makes a replica die with the benchmark, so no replica outlives
// a benchmark that is killed.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
