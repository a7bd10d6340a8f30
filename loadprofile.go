package edisim

import (
	"fmt"
	"strconv"
	"strings"

	"edisim/internal/load"
	"edisim/internal/web"
)

// --- Load profiles & overload controls --------------------------------------

// LoadProfile is a deterministic open-loop arrival-rate profile: clients
// send at the profiled rate whether or not the service keeps up (the
// opposite of the paper's closed-loop httperf sessions, where slow replies
// throttle the offered load). Profiles drive OverloadStudy and
// WebRunConfig.Profile.
type LoadProfile = load.Profile

// The built-in profile shapes.
type (
	// SteadyLoad offers a constant rate (Poisson arrivals).
	SteadyLoad = load.Steady
	// SpikeLoad is a flash crowd: Base, stepping to Peak during
	// [Start, Start+Duration).
	SpikeLoad = load.Spike
	// DiurnalLoad is a raised-cosine day/night cycle between Min and Max.
	DiurnalLoad = load.Diurnal
	// BurstyLoad alternates Base and Burst rates with exponential
	// burst/gap durations (a two-state MMPP).
	BurstyLoad = load.Bursty
)

// ShedPolicy bounds what a web server accepts under overload; ShedMode
// selects the policy (ShedDropTail, ShedDeadline, ShedPriority).
type (
	ShedMode   = web.ShedMode
	ShedPolicy = web.ShedPolicy
)

// The admission-control policies.
const (
	ShedOff      = web.ShedOff
	ShedDropTail = web.ShedDropTail
	ShedDeadline = web.ShedDeadline
	ShedPriority = web.ShedPriority
)

// SLO is a service-level objective plus the reactive controller defending
// it (reserve activation, brownout); SLOWindow is one controller
// evaluation, recorded in WebResult.Windows.
type (
	SLO       = web.SLO
	SLOWindow = web.SLOWindow
)

// ParseLoadProfile parses the textual load-profile grammar the CLIs accept
// (see API.md). One of:
//
//	steady:RATE                          constant RATE conn/s
//	spike:BASE,PEAK@START+DURATION       flash crowd to PEAK during the window
//	diurnal:MIN..MAX/PERIOD              raised-cosine day/night cycle
//	bursty:BASE,BURST,MEANBURST,MEANGAP  two-state MMPP
//
// The grammar round-trips with each profile's String method. An empty spec
// returns a nil profile (closed-loop operation). The parsed profile is
// validated; a malformed or invalid spec is an error naming it.
func ParseLoadProfile(spec string) (LoadProfile, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("edisim: load profile %q: missing ':' (want steady:RATE, spike:BASE,PEAK@START+DURATION, diurnal:MIN..MAX/PERIOD or bursty:BASE,BURST,MEANBURST,MEANGAP)", spec)
	}
	var p LoadProfile
	var err error
	switch strings.TrimSpace(kind) {
	case "steady":
		var rate float64
		if rate, err = parseNum(rest); err == nil {
			p = load.Steady{Rate: rate}
		}
	case "spike":
		p, err = parseSpike(rest)
	case "diurnal":
		p, err = parseDiurnal(rest)
	case "bursty":
		var v []float64
		if v, err = parseNums(rest, 4); err == nil {
			p = load.Bursty{Base: v[0], Burst: v[1], MeanBurst: v[2], MeanGap: v[3]}
		}
	default:
		err = fmt.Errorf("unknown profile kind %q (want steady, spike, diurnal or bursty)", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("edisim: load profile %q: %w", spec, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("edisim: load profile %q: %w", spec, err)
	}
	return p, nil
}

// parseSpike parses BASE,PEAK@START+DURATION.
func parseSpike(s string) (LoadProfile, error) {
	rates, timing, ok := strings.Cut(s, "@")
	if !ok {
		return nil, fmt.Errorf("missing '@START+DURATION'")
	}
	v, err := parseNums(rates, 2)
	if err != nil {
		return nil, err
	}
	start, dur, ok := strings.Cut(timing, "+")
	if !ok {
		return nil, fmt.Errorf("missing '+DURATION' after %q", start)
	}
	sp := load.Spike{Base: v[0], Peak: v[1]}
	if sp.Start, err = parseNum(start); err != nil {
		return nil, err
	}
	if sp.Duration, err = parseNum(dur); err != nil {
		return nil, err
	}
	return sp, nil
}

// parseDiurnal parses MIN..MAX/PERIOD.
func parseDiurnal(s string) (LoadProfile, error) {
	rates, period, ok := strings.Cut(s, "/")
	if !ok {
		return nil, fmt.Errorf("missing '/PERIOD'")
	}
	lo, hi, ok := strings.Cut(rates, "..")
	if !ok {
		return nil, fmt.Errorf("missing '..' between MIN and MAX in %q", rates)
	}
	var d load.Diurnal
	var err error
	if d.Min, err = parseNum(lo); err != nil {
		return nil, err
	}
	if d.Max, err = parseNum(hi); err != nil {
		return nil, err
	}
	if d.Period, err = parseNum(period); err != nil {
		return nil, err
	}
	return d, nil
}

func parseNum(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", strings.TrimSpace(s))
	}
	return v, nil
}

func parseNums(s string, n int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("want %d comma-separated numbers, got %d in %q", n, len(parts), s)
	}
	out := make([]float64, n)
	for i, p := range parts {
		v, err := parseNum(p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
