package main

import (
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB returns this process's peak resident set size in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procCPU returns the user+system CPU time of a running child process,
// read from its /proc stat line.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	const ticks = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticks, nil
}

// allocCounters reads this process's cumulative heap allocation and GC
// cycle counts.
func allocCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// releaseMemory returns freed set-up garbage to the OS, so one set-up's
// data does not inflate the next one's peak.
func releaseMemory() { debug.FreeOSMemory() }
