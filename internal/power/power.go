// Package power provides the measurement side of the testbed: meters that
// aggregate node power/energy (the paper's Mastech DC supply for the Edison
// cluster, SNMP rack PDUs for the Dell cluster) and samplers that record
// power-over-time traces for the workload figures (Figs 4, 6, 12–17).
package power

import (
	"fmt"
	"math"

	"edisim/internal/hw"
	"edisim/internal/sim"
	"edisim/internal/stats"
	"edisim/internal/units"
)

// Meter aggregates instantaneous power and cumulative energy over a set of
// nodes. It corresponds to one physical measurement instrument.
type Meter struct {
	Name  string
	nodes []*hw.Node

	baseline map[*hw.Node]units.Joules
}

// NewMeter returns a meter over the given nodes. Energy readings are
// relative to the moment the meter was created (instrument switched on).
func NewMeter(name string, nodes []*hw.Node) *Meter {
	m := &Meter{Name: name, nodes: nodes, baseline: make(map[*hw.Node]units.Joules, len(nodes))}
	for _, n := range nodes {
		m.baseline[n] = n.Energy()
	}
	return m
}

// Reset zeroes the energy reading at the current simulation time.
func (m *Meter) Reset() {
	for _, n := range m.nodes {
		m.baseline[n] = n.Energy()
	}
}

// Power reports the summed instantaneous draw of all metered nodes.
func (m *Meter) Power() units.Watts {
	var w units.Watts
	for _, n := range m.nodes {
		w += n.Power()
	}
	return w
}

// Energy reports the summed joules consumed since creation or last Reset.
func (m *Meter) Energy() units.Joules {
	_, j := m.EnergySplit(0)
	return j
}

// EnergySplit reports, in one pass, the joules of the first k metered
// nodes and of all of them since creation or last Reset. The running sum
// is kept in node order, so first is bit-identical to Energy on a meter
// over those k nodes alone, and total to Energy on this one.
func (m *Meter) EnergySplit(k int) (first, total units.Joules) {
	for i, n := range m.nodes {
		total += n.Energy() - m.baseline[n]
		if i == k-1 {
			first = total
		}
	}
	return first, total
}

// Nodes reports the metered node set.
func (m *Meter) Nodes() []*hw.Node { return m.nodes }

// Sampler records a meter's power (and optionally other gauges) at a fixed
// interval into time series, like the psutil logger used in §5.2.
type Sampler struct {
	eng      *sim.Engine
	interval float64
	stopped  bool

	Power *stats.TimeSeries
	// Extra gauges sampled alongside power; each returns a value in [0,100]
	// or any unit the caller likes.
	gauges []gauge
}

type gauge struct {
	series *stats.TimeSeries
	read   func() float64
}

// NewSampler starts sampling the meter every interval seconds, beginning
// immediately. Stop it with Stop; it also stops when the engine drains.
// The interval must be a positive finite number of seconds: each tick
// reschedules the next at Now()+interval, so a zero (or negative, clamped
// to zero by the engine) delay would re-fire at the same simulated instant
// forever and livelock the run.
func NewSampler(eng *sim.Engine, m *Meter, interval float64) *Sampler {
	if math.IsNaN(interval) || math.IsInf(interval, 0) || interval <= 0 {
		panic(fmt.Sprintf("power: sampler interval must be a positive finite number of seconds, got %v", interval))
	}
	s := &Sampler{eng: eng, interval: interval, Power: stats.NewTimeSeries(m.Name + "/power")}
	var tick func()
	tick = func() {
		if s.stopped {
			return
		}
		s.Power.Add(float64(eng.Now()), float64(m.Power()))
		for _, g := range s.gauges {
			g.series.Add(float64(eng.Now()), g.read())
		}
		eng.After(interval, tick)
	}
	eng.After(0, tick)
	return s
}

// AddGauge samples read() alongside power and records it under name.
// It returns the series for later inspection.
func (s *Sampler) AddGauge(name string, read func() float64) *stats.TimeSeries {
	ts := stats.NewTimeSeries(name)
	s.gauges = append(s.gauges, gauge{series: ts, read: read})
	return ts
}

// Stop ends sampling after the current tick.
func (s *Sampler) Stop() { s.stopped = true }

// MeanUtilization is a helper returning a gauge function averaging CPU
// utilization (percent) across nodes.
func MeanUtilization(nodes []*hw.Node) func() float64 {
	return func() float64 {
		if len(nodes) == 0 {
			return 0
		}
		var u float64
		for _, n := range nodes {
			u += n.Utilization()
		}
		return 100 * u / float64(len(nodes))
	}
}

// MeanMemUtilization averages memory utilization (percent) across nodes.
func MeanMemUtilization(nodes []*hw.Node) func() float64 {
	return func() float64 {
		if len(nodes) == 0 {
			return 0
		}
		var u float64
		for _, n := range nodes {
			u += n.MemUtilization()
		}
		return 100 * u / float64(len(nodes))
	}
}
