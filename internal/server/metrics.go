package server

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adc/internal/latency"
)

// metrics aggregates per-route request counts, status counts, and
// latency histograms. One instance serves the whole server; every
// method is safe for concurrent use.
type metrics struct {
	mu       sync.Mutex
	requests map[string]int64
	statuses map[int]int64
	latency  map[string]*latency.Histogram
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]int64),
		statuses: make(map[int]int64),
		latency:  make(map[string]*latency.Histogram),
	}
}

func (m *metrics) observe(route string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[route]++
	m.statuses[status]++
	h := m.latency[route]
	if h == nil {
		h = latency.New()
		m.latency[route] = h
	}
	h.Observe(d)
}

// us converts a duration to the float microseconds /metrics reports.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// routeLatency is the exported latency summary of one route.
type routeLatency struct {
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
}

func (m *metrics) snapshot() (requests map[string]int64, statuses map[string]int64, lat map[string]routeLatency) {
	m.mu.Lock()
	defer m.mu.Unlock()
	requests = make(map[string]int64, len(m.requests))
	for k, v := range m.requests {
		requests[k] = v
	}
	statuses = make(map[string]int64, len(m.statuses))
	for k, v := range m.statuses {
		statuses[strconv.Itoa(k)] = v
	}
	lat = make(map[string]routeLatency, len(m.latency))
	for k, h := range m.latency {
		lat[k] = routeLatency{
			Count:  h.Count(),
			MeanUS: us(h.Mean()),
			P50US:  us(h.Quantile(0.50)),
			P99US:  us(h.Quantile(0.99)),
		}
	}
	return requests, statuses, lat
}

// deltaMetrics tracks incremental evidence maintenance server-wide:
// mines served by patching a cached pre-append evidence set (builds and
// the ordered pairs those deltas recomputed) versus appends whose cached
// set could not be patched and fell back to an O(n²) scratch rebuild.
type deltaMetrics struct {
	builds    atomic.Int64
	pairs     atomic.Int64
	fallbacks atomic.Int64
}

func (d *deltaMetrics) observe(delta bool, pairs int64, fallback bool) {
	if delta {
		d.builds.Add(1)
		d.pairs.Add(pairs)
	}
	if fallback {
		d.fallbacks.Add(1)
	}
}

func (d *deltaMetrics) snapshot() map[string]int64 {
	return map[string]int64{
		"builds":    d.builds.Load(),
		"pairs":     d.pairs.Load(),
		"fallbacks": d.fallbacks.Load(),
	}
}
