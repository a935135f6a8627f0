//go:build !linux

package main

import "syscall"

// childAttr has nothing to add off Linux; the parent still kills its
// child on interrupt, timeout or error.
func childAttr() *syscall.SysProcAttr { return nil }
