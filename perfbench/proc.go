package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// procSample is a snapshot of the process-wide counters a pass is
// measured with: CPU time from the kernel, and the Go runtime's own CPU
// and allocation accounting.
type procSample struct {
	wall    time.Time
	cpu     time.Duration // user + system
	gcCPU   float64       // seconds, runtime estimate
	usedCPU float64       // seconds the runtime spent on user code, GC and scavenging
	allocB  uint64        // cumulative heap bytes allocated
}

var procMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/cpu/classes/scavenge/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func sampleProc() procSample {
	s := procSample{wall: time.Now(), cpu: processCPU()}
	ms := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	f := func(i int) float64 {
		if ms[i].Value.Kind() == metrics.KindFloat64 {
			return ms[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if ms[i].Value.Kind() == metrics.KindUint64 {
			return ms[i].Value.Uint64()
		}
		return 0
	}
	s.gcCPU = f(0)
	s.usedCPU = f(0) + f(1) + f(2)
	s.allocB = u(3)
	return s
}

// processCPU returns the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the peak resident set size of the process in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// window is the difference between two samples.
type window struct {
	wall, cpu      time.Duration
	gcCPU, usedCPU float64
	allocB         uint64
}

func between(a, b procSample) window {
	return window{
		wall:    b.wall.Sub(a.wall),
		cpu:     b.cpu - a.cpu,
		gcCPU:   b.gcCPU - a.gcCPU,
		usedCPU: b.usedCPU - a.usedCPU,
		allocB:  b.allocB - a.allocB,
	}
}

// environment names the machine and code a result was measured on, so
// numbers from different machines or commits are never compared
// silently.
type environment struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func collectEnv(root string) environment {
	return environment{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitID(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitID is the VCS revision stamped into the binary when it was built
// inside a git work tree, or else a digest of the Go sources and module
// files under root (a checkout without history still gets an identity
// that changes whenever the code does).
func commitID(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return treeDigest(root)
}

func treeDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
