package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// peakRSS reads a process's peak resident set size (VmHWM) in MiB; pid is a
// process id or "self".
func peakRSS(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%s/status", pid)
}

// childPIDs lists the live child processes of this process (the dist
// workers), in ascending order.
func childPIDs() []int {
	self := os.Getpid()
	dirs, _ := filepath.Glob("/proc/[0-9]*")
	var out []int
	for _, d := range dirs {
		b, err := os.ReadFile(filepath.Join(d, "stat"))
		if err != nil {
			continue // exited while scanning
		}
		// pid (comm) state ppid ...; comm may hold spaces and parentheses.
		s := string(b)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) < 2 || fields[1] != strconv.Itoa(self) {
			continue
		}
		if pid, err := strconv.Atoi(filepath.Base(d)); err == nil {
			out = append(out, pid)
		}
	}
	sort.Ints(out)
	return out
}

// waitExited waits until none of pids exists any more (killed and reaped).
func waitExited(pids []int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, pid := range pids {
		for {
			if _, err := os.Stat(filepath.Join("/proc", strconv.Itoa(pid))); os.IsNotExist(err) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("worker process %d still running %v after shutdown", pid, timeout)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}
