// Command websvc reproduces the paper's web-service experiments (§5.1):
// httperf concurrency sweeps over the middle-tier platforms, reporting
// throughput, response delay, error onset, cluster power (Figures 4–9),
// delay distributions (Figures 10–11) and the Table 7 delay decomposition.
//
// Usage:
//
//	websvc -image 0.20 -cachehit 0.93 -duration 30 -scale full
//	websvc -format csv    # figures as CSV blocks (progress lines omitted)
//	websvc -scale 1/4 -timeout 0.5 -crash 2 -downtime 10   # availability drill
//
// With -profile the closed-loop concurrency sweep is replaced by one
// open-loop overload run per tier (see API.md for the profile grammar):
//
//	websvc -scale 1/4 -profile spike:120,600@6+6 -shed deadline:0.5 \
//	       -retrybudget 0.1 -slo 0.5 -brownout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"edisim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code lifted out, so the golden
// tests drive the real flag, sweep and output paths.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("websvc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		image    = fs.Float64("image", 0.0, "image query fraction (paper: 0, 0.06, 0.10, 0.20)")
		cacheHit = fs.Float64("cachehit", 0.93, "cache hit ratio (paper: 0.93, 0.77, 0.60; 0 = cold cache)")
		duration = fs.Float64("duration", 20, "simulated seconds per concurrency level")
		scale    = fs.String("scale", "full", "cluster scale: full, 1/2, 1/4, 1/8")
		seed     = fs.Int64("seed", 1, "root random seed")
		format   = fs.String("format", "text", "output format: text, json or csv")
		timeout  = fs.Float64("timeout", 0, "client request timeout in seconds; 0 disables recovery (the paper's behavior)")
		retries  = fs.Int("retries", 0, "max retries per request after a timeout (0 = default 3 when -timeout is set)")
		crash    = fs.Int("crash", 0, "crash drill: this many web servers crash in a rolling wave mid-measurement")
		downtime = fs.Float64("downtime", 30, "seconds each crashed server stays down before rebooting")

		profileSpec = fs.String("profile", "", "open-loop load profile (steady:RATE, spike:BASE,PEAK@START+DUR, diurnal:MIN..MAX/PERIOD, bursty:BASE,BURST,MEANBURST,MEANGAP); replaces the concurrency sweep")
		shedSpec    = fs.String("shed", "", "admission control: drop[:QUEUE], deadline[:SECS] or priority[:LOWFRAC]")
		retryBudget = fs.Float64("retrybudget", 0, "client retry budget as a fraction of first attempts (0 = unbudgeted); needs -timeout")
		sloTarget   = fs.Float64("slo", 0, "SLO: p99 latency target in seconds, evaluated per 1s window (0 = no controller)")
		brownout    = fs.Bool("brownout", false, "degrade cache misses to stale answers while the SLO burns (needs -slo)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "websvc: %v\n", err)
		return code
	}
	profile, err := parseProfileArg(*profileSpec)
	if err != nil {
		return fail(2, err)
	}
	shed, err := parseShed(*shedSpec)
	if err != nil {
		return fail(2, err)
	}
	if profile != nil && *timeout == 0 {
		// Open-loop clients must time out: an unanswered open-loop request
		// otherwise waits forever.
		*timeout = 0.5
	}
	if !edisim.ValidOutputFormat(*format) {
		return fail(2, fmt.Errorf("unknown format %q (want text, json or csv)", *format))
	}
	if *cacheHit == 0 {
		// An explicit -cachehit 0 means a cold cache; the WebRunConfig zero
		// value would mean "use the default", so pass the sentinel through.
		*cacheHit = edisim.ColdCache
	}

	var ws *edisim.WebScale
	for _, s := range edisim.Table6() {
		if s.Name == *scale {
			s := s
			ws = &s
		}
	}
	if ws == nil {
		return fail(2, fmt.Errorf("unknown scale %q", *scale))
	}

	base := edisim.WebRunConfig{
		ImageFrac:      *image,
		CacheHit:       *cacheHit,
		Duration:       *duration,
		RequestTimeout: *timeout,
		MaxRetries:     *retries,
	}
	point := func(tier edisim.WebTier, rc edisim.WebRunConfig) (edisim.WebResult, error) {
		return runPoint(tier, rc, *seed, *crash, *downtime)
	}
	if profile != nil {
		base.Profile, base.Shed, base.RetryBudget = profile, shed, *retryBudget
		if *sloTarget > 0 {
			base.SLO = &edisim.SLO{Latency: *sloTarget, Window: 1, Brownout: *brownout}
		}
		return runOverload(stdout, stderr, ws, base, point, *format)
	}

	concurrencies := []float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048}
	fig := edisim.NewFigure("Throughput", "conn/s", "req/s", concurrencies)
	dfig := edisim.NewFigure("Response delay", "conn/s", "ms", concurrencies)
	pfig := edisim.NewFigure("Cluster power", "conn/s", "W", concurrencies)

	if *crash > 0 && *timeout == 0 {
		fmt.Fprintln(stderr, "websvc: a -crash drill without -timeout loses every request on the dead servers; set -timeout to measure recovery")
	}

	sweep := func(tier edisim.WebTier) error {
		var tput, delay, pow []float64
		for _, c := range concurrencies {
			rc := base
			rc.Concurrency = c
			r, err := point(tier, rc)
			if err != nil {
				return err
			}
			if *format == "text" {
				mark := ""
				if r.ErrorRate > 0.01 {
					mark = " [errors]"
				}
				if r.Timeouts > 0 || r.Retries > 0 {
					mark += fmt.Sprintf(" [timeouts=%d retries=%d]", r.Timeouts, r.Retries)
				}
				fmt.Fprintf(stdout, "%-7s web=%-2d conc=%-6.0f tput=%-7.0f delay=%-8.2fms err=%-6.3f power=%-7.1fW cpu(web)=%.0f%% cpu(cache)=%.0f%% hit=%.2f%s\n",
					tier.Web.Label, tier.NWeb, c, r.Throughput, r.MeanDelay*1e3, r.ErrorRate,
					float64(r.MeanPower), r.WebCPU*100, r.CacheCPU*100, r.HitRatio, mark)
			}
			tput = append(tput, r.Throughput)
			delay = append(delay, r.MeanDelay*1e3)
			pow = append(pow, float64(r.MeanPower))
		}
		label := fmt.Sprintf("%d %s", tier.NWeb, tier.Web.Label)
		fig.Add(label, tput)
		dfig.Add(label, delay)
		pfig.Add(label, pow)
		return nil
	}

	for _, tier := range ws.Tiers {
		if err := sweep(tier); err != nil {
			return fail(2, err)
		}
	}

	if *format != "text" {
		a := &edisim.Artifact{
			ID: "websvc", Title: "httperf concurrency sweep", Section: "5.1",
			Figures: []*edisim.Figure{fig, dfig, pfig},
		}
		if err := edisim.WriteDocument(*format, stdout, []*edisim.Artifact{a}); err != nil {
			return fail(1, err)
		}
		return 0
	}

	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, fig)
	fmt.Fprintln(stdout, dfig)
	fmt.Fprintln(stdout, pfig)
	return 0
}

// profileGrammar is the whole -profile grammar, one line per kind, shown
// whenever a spec fails to parse so the operator never has to dig the
// shapes out of API.md mid-flight.
const profileGrammar = `  steady:RATE                          constant RATE conn/s
  spike:BASE,PEAK@START+DURATION       flash crowd to PEAK during the window
  diurnal:MIN..MAX/PERIOD              raised-cosine day/night cycle
  bursty:BASE,BURST,MEANBURST,MEANGAP  two-state MMPP`

// parseProfileArg wraps edisim.ParseLoadProfile so a bad -profile value
// fails with the specific parse error followed by the full grammar and the
// valid kinds, not just whichever token tripped first.
func parseProfileArg(spec string) (edisim.LoadProfile, error) {
	p, err := edisim.ParseLoadProfile(spec)
	if err != nil {
		return nil, fmt.Errorf("%w\nvalid -profile forms (kinds: steady, spike, diurnal, bursty):\n%s", err, profileGrammar)
	}
	return p, nil
}

// parseShed parses the -shed grammar: MODE[:PARAM], where drop takes a
// queue bound (an integer >= 1), deadline takes seconds and priority takes
// the low-priority fraction. The parameter is optional: left out, the
// policy default applies. Given, it must be a positive value the policy
// keeps as written, and the policy must pass Validate.
func parseShed(spec string) (edisim.ShedPolicy, error) {
	var p edisim.ShedPolicy
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	mode, param, hasParam := strings.Cut(spec, ":")
	switch strings.TrimSpace(mode) {
	case "drop":
		p.Mode = edisim.ShedDropTail
	case "deadline":
		p.Mode = edisim.ShedDeadline
	case "priority":
		p.Mode = edisim.ShedPriority
	default:
		return p, fmt.Errorf("shed %q: unknown mode (want drop, deadline or priority)", spec)
	}
	param = strings.TrimSpace(param)
	switch {
	case !hasParam:
	case p.Mode == edisim.ShedDropTail:
		q, err := strconv.Atoi(param)
		if err != nil || q < 1 {
			return p, fmt.Errorf("shed %q: queue bound %q must be an integer >= 1", spec, param)
		}
		p.Queue = q
	default:
		// A zero would read as unset and become the policy default.
		v, err := strconv.ParseFloat(param, 64)
		if err != nil || !(v > 0) {
			return p, fmt.Errorf("shed %q: parameter %q must be a positive number", spec, param)
		}
		if p.Mode == edisim.ShedDeadline {
			p.Deadline = v
		} else {
			p.LowFrac = v
		}
	}
	if err := p.Validate(); err != nil {
		return p, fmt.Errorf("shed %q: %w", spec, err)
	}
	return p, nil
}

// runOverload replaces the concurrency sweep with one open-loop run of rc
// per tier, each through point: rc.Profile sets the offered load, and the
// resilience knobs (shedding, retry budget, SLO controller) shape how the
// tier degrades.
func runOverload(stdout, stderr io.Writer, ws *edisim.WebScale, rc edisim.WebRunConfig,
	point func(edisim.WebTier, edisim.WebRunConfig) (edisim.WebResult, error), format string) int {
	t := edisim.NewTable(fmt.Sprintf("Open-loop overload: %v", rc.Profile),
		"platform", "web", "offered conn/s", "goodput req/s", "shed /s", "degraded /s",
		"p50 ms", "p99 ms", "p999 ms", "err rate", "denied", "power W").
		WithUnits("", "nodes", "conn/s", "req/s", "/s", "/s", "ms", "ms", "ms", "", "", "W")
	for _, tier := range ws.Tiers {
		r, err := point(tier, rc)
		if err != nil {
			fmt.Fprintf(stderr, "websvc: %v\n", err)
			return 2
		}
		window := r.WindowSecs
		t.AddRow(tier.Web.Label, tier.NWeb,
			edisim.Num(float64(r.Offered)/window, "conn/s"),
			edisim.Num(r.Throughput, "req/s"),
			edisim.Num(float64(r.Shed)/window, "/s"),
			edisim.Num(float64(r.Degraded)/window, "/s"),
			edisim.Num(r.Latency.Quantile(0.5)*1e3, "ms"),
			edisim.Num(r.Latency.Quantile(0.99)*1e3, "ms"),
			edisim.Num(r.Latency.Quantile(0.999)*1e3, "ms"),
			edisim.Num(r.ErrorRate, ""),
			edisim.Count(r.RetryDenied, ""),
			edisim.Num(float64(r.MeanPower), "W"),
		)
	}
	if format == "text" {
		fmt.Fprintln(stdout, t)
		return 0
	}
	a := &edisim.Artifact{
		ID: "websvc_overload", Title: "open-loop overload run", Section: "beyond-paper",
		Tables: []*edisim.Table{t},
	}
	if err := edisim.WriteDocument(format, stdout, []*edisim.Artifact{a}); err != nil {
		fmt.Fprintf(stderr, "websvc: %v\n", err)
		return 1
	}
	return 0
}

// runPoint runs rc on a freshly built tier so runs are independent and
// reproducible. With crash > 0, that many web servers go down in a rolling
// wave through the middle of the measurement window.
func runPoint(tier edisim.WebTier, rc edisim.WebRunConfig, seed int64, crash int, downtime float64) (edisim.WebResult, error) {
	dep := tier.Build(edisim.PowerLinear, nil, seed)
	dep.WarmFor(rc)
	if crash > 0 {
		crash = min(crash, tier.NWeb)
		// The wave starts after the warm-up quarter and spreads over the
		// middle half of the run.
		start := 0.3 * rc.Duration
		gap := 0.5 * rc.Duration / float64(crash)
		plan := edisim.RollingCrashFaults("web", crash, start, gap, downtime)
		if err := edisim.ScheduleWebFaults(dep, plan, seed); err != nil {
			return edisim.WebResult{}, err
		}
	}
	return dep.Run(rc), nil
}
