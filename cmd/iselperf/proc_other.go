//go:build !linux

package main

import "syscall"

func daemonProcAttr() *syscall.SysProcAttr { return nil }
