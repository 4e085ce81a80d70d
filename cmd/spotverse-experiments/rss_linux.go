package main

import "syscall"

// peakRSSKB reports the process's peak resident set size in kB
// (getrusage's ru_maxrss, which Linux gives in kB).
func peakRSSKB() (int64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return int64(ru.Maxrss), true
}
