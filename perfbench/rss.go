package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rssEvery is how often the sampler reads the resident set.
const rssEvery = 5 * time.Millisecond

// rssSampler polls the process's resident set while the timed window runs
// and keeps the peak of each pass. The process-wide high-water mark is the
// maximum over every pass, so it follows the rare moment the collector
// marks while both service clients hold their largest requests; the
// median pass's peak does not.
type rssSampler struct {
	mu    sync.Mutex
	peak  float64
	peaks []float64
	err   error

	stop chan struct{}
	done chan struct{}
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	mb, err := residentMB()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.err = err
		return
	}
	s.peak = max(s.peak, mb)
}

// endPass closes the current pass with one last sample.
func (s *rssSampler) endPass() {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peaks = append(s.peaks, s.peak)
	s.peak = 0
}

// finish stops the sampler, waits for it and returns each pass's peak.
func (s *rssSampler) finish() ([]float64, error) {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil && len(s.peaks) == 0 {
		s.err = errors.New("no pass ended while the resident set was sampled")
	}
	return s.peaks, s.err
}

// residentMB reads the process's resident set (VmRSS) in MB. It reads
// statm, not status: the kernel produces it more cheaply, and the sampler
// reads it 200 times a second beside a busy workload.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("reading resident set: %w", err)
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0, fmt.Errorf("parsing /proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, fmt.Errorf("parsing /proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / 1e6, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
