package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostFacts describe the machine a result was measured on.
type hostFacts struct {
	nproc, gomaxprocs int
	goVersion, cpu    string
	l2, l3            string
}

func readHost() hostFacts {
	h := hostFacts{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		cpu:        "unknown",
		l2:         "unknown",
		l3:         "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, size := readTrim(filepath.Join(d, "level")), readTrim(filepath.Join(d, "size"))
		switch level {
		case "2":
			h.l2 = size
		case "3":
			h.l3 = size
		}
	}
	return h
}

// cpuTicks reads the aggregate CPU line of /proc/stat: all ticks, and the
// ticks a hypervisor stole from this machine's virtual CPUs. Steal during a
// run means the host was contended and wall-clock metrics read slow.
func cpuTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user .. steal; guest time is already in user

		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

func (h hostFacts) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q l2=%s l3=%s", h.nproc, h.gomaxprocs, h.goVersion, h.cpu, h.l2, h.l3)
}
