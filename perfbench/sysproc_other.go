//go:build !linux

package main

import "syscall"

// childAttr is a no-op off Linux; replicas are stopped by close.
func childAttr() *syscall.SysProcAttr { return nil }
