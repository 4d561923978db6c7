//go:build !linux

package main

// Resident memory, CPU steal, filesystem and CPU model are read
// from /proc and statfs on Linux only; elsewhere they report
// as zero or unknown.

func rssBytes() int64 { return 0 }

func fsType(string) string { return "unknown" }

func cpuModel() string { return "unknown" }

func cpuTicks() (total, steal uint64) { return 0, 0 }
