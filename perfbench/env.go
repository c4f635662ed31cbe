package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// environment is the block every result carries, so a number can be tied
// to the machine and configuration that produced it.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	// Workload configuration.
	LoadModel      string `json:"load_model"`
	ManagerWorkers int    `json:"manager_workers"`
	MiningThreads  int    `json:"max_mining_threads"`
	ClientConns    int    `json:"client_conns"`
	StoreFlush     string `json:"store_flush_policy,omitempty"`
	// Cache sizes against the working set they serve.
	ResultCacheBytes int64 `json:"result_cache_bytes"`
	WorkingSetBytes  int64 `json:"result_working_set_bytes"`
	StoreLRUBytes    int64 `json:"store_lru_bytes,omitempty"`
	StoreWorkingSet  int64 `json:"store_working_set_bytes,omitempty"`
}

func newEnvironment(workload string, seed int64, seconds int, trace bool) environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Workload:   workload,
		Seconds:    seconds,
		Trace:      trace,
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

// rssMB reads the resident set size of this process in MB.
func rssMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// rssSampler tracks the peak resident set while it runs.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak float64
}

func startRSSSampler(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: rssMB()}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				v := rssMB()
				s.mu.Lock()
				s.peak = max(s.peak, v)
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak in MB.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return max(s.peak, rssMB())
}

// allocMeter measures heap bytes allocated by the whole process since it
// was started.
type allocMeter uint64

func startAllocMeter() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter(m.TotalAlloc)
}

func (a allocMeter) since() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc - uint64(a)
}
