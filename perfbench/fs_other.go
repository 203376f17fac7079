//go:build !linux

package main

import "runtime"

// fsType is only resolved on Linux.
func fsType(string) string { return runtime.GOOS + " (not resolved)" }
