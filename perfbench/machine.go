package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint describes the machine a result was measured on.
func fingerprint() map[string]string {
	kernel := runtime.GOOS
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = runtime.GOOS + " " + string(bytes.TrimSpace(b))
	}
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"arch":       runtime.GOARCH,
		"kernel":     kernel,
		"tmp_fs":     fsType(os.TempDir()),
	}
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, where
// Linux allows it; elsewhere the mark keeps counting from process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's resident-set high-water mark in MB, or,
// where /proc is missing, the memory the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(rest); len(fields) == 2 && fields[1] == "kB" {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb * 1024 / 1e6
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}
