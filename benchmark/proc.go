package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Reading a process from outside, through /proc: memory from status,
// CPU time from stat, syscall counts from io. pid 0 means this process.

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}

// procFields reads a "Name: value [unit]" file into name -> first value
// token.
func procFields(pid int, file string) (map[string]string, error) {
	b, err := os.ReadFile(procPath(pid, file))
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(b), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if f := strings.Fields(rest); ok && len(f) > 0 {
			out[name] = f[0]
		}
	}
	return out, nil
}

// procMem returns the process's peak and current resident set in MB
// (VmHWM and VmRSS, which /proc reports in kB).
func procMem(pid int) (peakMB, rssMB float64, err error) {
	f, err := procFields(pid, "status")
	if err != nil {
		return 0, 0, err
	}
	hwm, err1 := strconv.ParseFloat(f["VmHWM"], 64)
	rss, err2 := strconv.ParseFloat(f["VmRSS"], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("%s: no VmHWM/VmRSS", procPath(pid, "status"))
	}
	return hwm / 1024, rss / 1024, nil
}

// clockTick is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat; it is 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the CPU time (user + system) the process has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// the numbered fields resume after the last ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: short", procPath(pid, "stat"))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("%s: bad utime/stime", procPath(pid, "stat"))
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procSyscalls returns the read plus write syscalls the process has
// made (syscr + syscw). ok is false where /proc/<pid>/io cannot be read
// (it needs ptrace access to the process).
func procSyscalls(pid int) (n int64, ok bool) {
	f, err := procFields(pid, "io")
	if err != nil {
		return 0, false
	}
	r, err1 := strconv.ParseInt(f["syscr"], 10, 64)
	w, err2 := strconv.ParseInt(f["syscw"], 10, 64)
	return r + w, err1 == nil && err2 == nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		p := dir + "/" + e.Name()
		if e.IsDir() {
			n, err := dirBytes(p)
			if err != nil {
				return 0, err
			}
			total += n
		} else if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total, nil
}
