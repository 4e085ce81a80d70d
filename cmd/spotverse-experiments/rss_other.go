//go:build !linux

package main

// peakRSSKB reports that the peak resident set size is not measured
// here: ru_maxrss is in kB only on Linux.
func peakRSSKB() (int64, bool) { return 0, false }
