package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// procStatusMB reads one kB field of /proc/<pid>/status, in MB.
func procStatusMB(pid int, field string) float64 {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rssSampler reads a process's resident set size every 100 ms until
// stopped. The benchmark reports the median sample: a Go process's
// peak (VmHWM, or a high percentile of the samples) catches spikes
// shorter than a GC cycle whose size depends on when collection ran,
// and varied by a quarter or more between identical runs.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
	pid  int
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1), pid: pid}
	go func() {
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		var xs []float64
		for {
			if mb := procStatusMB(pid, "VmRSS"); mb > 0 {
				xs = append(xs, mb)
			}
			select {
			case <-s.stop:
				s.done <- xs
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and reports the median sample, with the sample
// count and the all-time VmHWM in the run's details.
func (s *rssSampler) finish(b *bench) {
	close(s.stop)
	xs := <-s.done
	b.set("rss_mb", median(xs))
	b.info["rss_samples"] = len(xs)
	b.info["vmhwm_mb"] = procStatusMB(s.pid, "VmHWM")
}
