package edisim

import (
	"fmt"
	"strconv"
	"strings"

	"edisim/internal/faults"
)

// ParseFaultPlan parses the textual fault-schedule grammar the CLIs accept
// (see API.md). A schedule is a semicolon-separated list of events:
//
//	KIND@AT[+DURATION][xFACTOR]:ROLE[INDEX]
//
// where KIND is node_crash, straggler, link_cut or link_degrade; AT is the
// injection time in seconds into the run; +DURATION (optional) is how long
// the fault lasts before the target recovers (omitted = permanent); xFACTOR
// (straggler and link_degrade only) is the speed/capacity scale; ROLE names
// the target set ("web", "slave", "master"); and [INDEX] (optional,
// default 0) picks the target within it. Examples:
//
//	node_crash@30+120:slave[1]
//	straggler@10+60x0.25:web[2]
//	link_degrade@5x0.5:slave
//
// An empty spec returns a nil plan (no faults). The parsed plan is
// validated; a malformed or invalid event is an error naming it.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	fp := &FaultPlan{}
	for _, raw := range strings.Split(spec, ";") {
		s := strings.TrimSpace(raw)
		if s == "" {
			continue
		}
		ev, err := parseFaultEvent(s)
		if err != nil {
			return nil, fmt.Errorf("edisim: fault event %q: %w", s, err)
		}
		fp.Events = append(fp.Events, ev)
	}
	if len(fp.Events) == 0 {
		return nil, nil
	}
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	return fp, nil
}

// parseFaultEvent parses one KIND@AT[+DURATION][xFACTOR]:ROLE[INDEX] term.
func parseFaultEvent(s string) (FaultEvent, error) {
	var ev FaultEvent
	kind, rest, ok := strings.Cut(s, "@")
	if !ok {
		return ev, fmt.Errorf("missing '@AT' (want KIND@AT[+DURATION][xFACTOR]:ROLE[INDEX])")
	}
	ev.Kind = FaultKind(strings.TrimSpace(kind))
	timing, target, ok := strings.Cut(rest, ":")
	if !ok {
		return ev, fmt.Errorf("missing ':ROLE'")
	}
	if head, factor, ok := strings.Cut(timing, "x"); ok {
		f, err := strconv.ParseFloat(strings.TrimSpace(factor), 64)
		if err != nil {
			return ev, fmt.Errorf("bad factor %q", factor)
		}
		ev.Factor = f
		timing = head
	}
	at, dur, hasDur := strings.Cut(timing, "+")
	v, err := strconv.ParseFloat(strings.TrimSpace(at), 64)
	if err != nil {
		return ev, fmt.Errorf("bad time %q", at)
	}
	ev.At = v
	if hasDur {
		v, err := strconv.ParseFloat(strings.TrimSpace(dur), 64)
		if err != nil {
			return ev, fmt.Errorf("bad duration %q", dur)
		}
		ev.Duration = v
	}
	target = strings.TrimSpace(target)
	if i := strings.IndexByte(target, '['); i >= 0 {
		if !strings.HasSuffix(target, "]") {
			return ev, fmt.Errorf("unclosed index in %q", target)
		}
		n, err := strconv.Atoi(target[i+1 : len(target)-1])
		if err != nil {
			return ev, fmt.Errorf("bad index in %q", target)
		}
		ev.Index = n
		target = target[:i]
	}
	ev.Role = target
	return ev, nil
}

// RollingCrashFaults builds the classic rolling-failure availability drill:
// count distinct targets of the role crash one after another — target i goes
// down at start + i×gap and reboots downtime seconds later.
func RollingCrashFaults(role string, count int, start, gap, downtime float64) *FaultPlan {
	return faults.RollingCrashes(role, count, start, gap, downtime)
}

// ScheduleWebFaults arms a fault plan against a web deployment before a Run:
// roles "web" and "cache" resolve to the deployment's server tiers in ring
// order. Call it after building (and warming) the deployment and before
// Deployment.Run; event times are relative to the run's start. The seed
// drives the plan's jitter. A nil or empty plan is a no-op; an invalid plan
// or one naming any other role is an error.
func ScheduleWebFaults(dep *WebDeployment, plan *FaultPlan, seed int64) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	if plan.Empty() {
		return nil
	}
	roster := dep.Roster()
	for _, r := range plan.Roles() {
		if _, ok := roster[r]; !ok {
			return fmt.Errorf("edisim: fault plan targets role %q; a web deployment has roles web and cache", r)
		}
	}
	faults.Schedule(dep.Eng, plan, seed, roster)
	return nil
}
