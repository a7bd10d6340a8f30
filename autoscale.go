package edisim

import (
	"fmt"

	"edisim/internal/autoscale"
	"edisim/internal/core"
	"edisim/internal/report"
	"edisim/internal/web"
)

// --- Autoscaling -------------------------------------------------------------

// AutoscalePolicy decides how many web servers should be serving, evaluated
// once per SLO controller window. The built-in policies are
// TargetUtilPolicy, QueueDepthPolicy and PredictivePolicy; custom
// implementations must be deterministic pure functions of the signals.
type AutoscalePolicy = autoscale.Policy

type (
	// TargetUtilPolicy sizes the fleet to hold mean CPU utilization at
	// Target (the horizontal-pod-autoscaler shape).
	TargetUtilPolicy = autoscale.TargetUtil
	// QueueDepthPolicy reacts to per-server in-flight depth and admission-
	// control shedding; thresholds default from the platform's limits.
	QueueDepthPolicy = autoscale.QueueDepth
	// PredictivePolicy reads the declared LoadProfile one boot delay ahead
	// and provisions for it now — the only policy that can beat the boot
	// delay on a known cycle, and blind to anything the profile omits.
	PredictivePolicy = autoscale.Predictive
)

// AutoscaleConfig arms the elasticity engine on a run: a Policy plus fleet
// lifecycle knobs (boot delay, warm-up penalty, cooldowns, serving bounds).
// Zero boot/warm-up knobs resolve from the web platform's Boot calibration.
type AutoscaleConfig = autoscale.Config

// ScaleEvent is one fleet transition (boot, join, drain, park), delivered
// to AutoscaleConfig.Observer; ScaleEventKind labels it.
type (
	ScaleEvent     = autoscale.Event
	ScaleEventKind = autoscale.EventKind
)

// The fleet transitions an Observer sees.
const (
	ScaleBootStart   = autoscale.EventBootStart
	ScaleBootAbort   = autoscale.EventBootAbort
	ScaleJoin        = autoscale.EventJoin
	ScaleDrainStart  = autoscale.EventDrainStart
	ScaleDrainCancel = autoscale.EventDrainCancel
	ScalePark        = autoscale.EventPark
)

// AutoscaleStudy drives a middle tier with an open-loop LoadProfile while
// an elastic fleet policy sizes the web tier: servers boot with the
// platform's power-on delay (at busy draw), join cold (warm-up speed
// penalty), and drain before parking at zero draw — so the reported energy
// prices the whole elasticity story, not just the serving steady state. A
// nil Autoscale runs the identical traffic on the static fleet, making a
// fixed-vs-elastic comparison two studies in one Scenario. Composes with
// Scenario.Faults (roles "web" and "cache") and all OverloadStudy knobs.
//
// Determinism contract: for a fixed Scenario seed the study is bit-identical
// across Workers settings — policy decisions run on simulated time from
// windowed signals, never on wall clock or scheduling order.
type AutoscaleStudy struct {
	// ID names the artifact (default "autoscale_study") and namespaces the
	// run's seed: two studies in one scenario need distinct IDs.
	ID string

	// Web and Cache size the middle tier exactly like WebSweep: the web
	// platform defaults to the baseline micro server at its fleet size, the
	// cache tier to the web platform at its fleet size.
	Web   TierSpec
	Cache TierSpec
	// DBNodes and Clients size the shared infrastructure tier (defaults:
	// the paper's 2 database servers and 8 load generators).
	DBNodes, Clients int

	// Profile is the open-loop arrival profile (required). PredictivePolicy
	// extrapolates this same profile.
	Profile LoadProfile
	// Duration is the simulated seconds (default 30, 8 in Quick — longer
	// than OverloadStudy so the fleet has room to move).
	Duration float64
	// ImageFrac and CacheHit mirror WebSweep's workload knobs.
	ImageFrac float64
	CacheHit  float64

	// RequestTimeout is the client timeout in seconds (default 0.5).
	RequestTimeout float64
	// RetryBudget caps client retries (0: unbudgeted).
	RetryBudget float64
	// Shed is the admission-control policy; the zero value accepts
	// everything.
	Shed ShedPolicy
	// SLO is the controller the policy observes (default: p99 <= 0.5 s,
	// availability >= 99%, 1 s windows). SLO.Reserve is incompatible with
	// autoscaling — both edit the routing rotation.
	SLO *SLO

	// Autoscale arms the elasticity engine. Nil runs the static fully-
	// provisioned fleet as the baseline under identical traffic.
	Autoscale *AutoscaleConfig
}

// autoscaleStudySLO is the default objective an AutoscaleStudy is judged
// against when SLO is nil.
func autoscaleStudySLO() *SLO {
	return &SLO{Latency: 0.5, Availability: 0.99, Window: 1}
}

func (as *AutoscaleStudy) expand(cfg core.Config) ([]unit, error) {
	id := as.ID
	if id == "" {
		id = "autoscale_study"
	}
	ts, err := resolveTiers(id, as.Web, as.Cache, as.DBNodes, as.Clients)
	if err != nil {
		return nil, err
	}
	if as.Profile == nil {
		return nil, fmt.Errorf("edisim: %s: an autoscale study needs a load Profile (e.g. DiurnalLoad{Min: 60, Max: 400, Period: 30})", id)
	}
	rc := web.RunConfig{
		Profile:        as.Profile,
		Duration:       studyDuration(as.Duration, cfg, 30, 8),
		ImageFrac:      as.ImageFrac,
		CacheHit:       as.CacheHit,
		RequestTimeout: studyTimeout(as.RequestTimeout),
		RetryBudget:    as.RetryBudget,
		Shed:           as.Shed,
		SLO:            as.SLO,
	}
	if rc.SLO == nil {
		rc.SLO = autoscaleStudySLO()
	}
	if as.Autoscale != nil {
		ac := *as.Autoscale
		rc.Autoscale = &ac
	}
	if err := rc.Validate(); err != nil {
		return nil, fmt.Errorf("edisim: %s: %w", id, err)
	}

	mode := "static fleet"
	if as.Autoscale != nil {
		mode = as.Autoscale.Policy.Name() + " policy"
	}
	title := fmt.Sprintf("Autoscale study: %v, %s on %d %s web + %d %s cache",
		as.Profile, mode, ts.NWeb, ts.Web.Label, ts.NCache, ts.Cache.Label)

	run := func(cfg core.Config) (*core.Outcome, error) {
		res := core.RunWebPoint(cfg, ts, rc, cfg.Faults, cfg.PointSeed(id, 0))
		meanActive := res.MeanActive
		if as.Autoscale == nil {
			meanActive = float64(ts.NWeb)
		}
		o := &core.Outcome{}
		t := report.NewTable(title,
			"offered conn/s", "goodput req/s", "SLO met", "mean active", "scale events", "boots", "boot J", "power W", "req/s/W", "shed /s", "err rate").
			WithUnits("conn/s", "req/s", "", "servers", "", "", "J", "W", "req/s/W", "/s", "")
		t.AddRow(
			report.Num(float64(res.Offered)/res.WindowSecs, "conn/s"),
			report.Num(res.Throughput, "req/s"),
			report.Num(res.SLOMet(), ""),
			report.Num(meanActive, "servers"),
			report.Count(res.ScaleUps+res.ScaleDowns, ""),
			report.Count(res.Boots, ""),
			report.Num(float64(res.BootEnergy), "J"),
			report.Num(float64(res.MeanPower), "W"),
			report.Num(res.PerWatt(), "req/s/W"),
			report.Num(float64(res.Shed)/res.WindowSecs, "/s"),
			report.Num(res.ErrorRate, ""),
		)
		o.Tables = append(o.Tables, t)
		if len(res.Windows) > 0 {
			x, served, _, active := core.SLOSeries(res)
			f := report.NewFigure(title+" — fleet vs load", "t (s)", "per second / servers", x)
			f.Add("served ops/s", served)
			f.Add("servers in rotation", active)
			o.Figures = append(o.Figures, f)
		}
		o.Notes = append(o.Notes, fmt.Sprintf(
			"%s; boot and idle-parked energy are inside power W and req/s/W; scale-down drains before parking (no request is killed by elasticity)",
			mode))
		return o, nil
	}
	return []unit{{id: id, title: title, section: "scenario", run: run}}, nil
}
