package main

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// rssBytes reads the process's resident set size from /proc/self/statm.
func rssBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(raw)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// cpuTicks reads the machine's total and stolen CPU ticks from
// /proc/stat: on a shared virtual machine, steal is the time another
// tenant held the physical CPU.
func cpuTicks() (total, steal uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(string(v), 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user … steal; guest time is already inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// fsMagic names the filesystems the state replay's directory is likely
// to sit on.
var fsMagic = map[int64]string{
	0x01021994: "tmpfs",
	0xEF53:     "ext4",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
	0x01021997: "9p",
	0x6a656a63: "virtiofs",
	0x65735546: "fuse",
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
