package main

import (
	"syscall"
	"time"
)

// The end-to-end timings are processor time of the benchmark process,
// user and system, summed over its threads. The benchmark runs on a few
// virtual cores of a shared host, and the hypervisor hands those cores
// to other guests for a share of the time that changes from run to run;
// wall-clock medians of identical code then differ between runs by a
// third or more. The kernel leaves stolen time out of a process's
// processor time (paravirtual steal accounting), so processor time
// follows the work the program does. Wall-time figures are still
// printed by every run and reported as op.* metrics by traced runs.

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return ru
}

// cpuTime returns the processor time the process has used so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}
