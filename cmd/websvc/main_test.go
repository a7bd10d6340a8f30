package main

import (
	"strings"
	"testing"

	"edisim"
)

// TestParseProfileArgErrors: every malformed -profile value must fail with
// the specific parse error plus the full grammar and the list of valid
// kinds, so the operator can fix the spec without opening API.md.
func TestParseProfileArgErrors(t *testing.T) {
	grammarLines := []string{
		"steady:RATE",
		"spike:BASE,PEAK@START+DURATION",
		"diurnal:MIN..MAX/PERIOD",
		"bursty:BASE,BURST,MEANBURST,MEANGAP",
		"kinds: steady, spike, diurnal, bursty",
	}
	cases := []struct {
		name, spec string
		wantErr    string // the spec-specific part of the message
	}{
		{"no colon", "steady", "missing ':'"},
		{"unknown kind", "sawtooth:10..90/5", `unknown profile kind "sawtooth"`},
		{"bad number", "steady:fast", `bad number "fast"`},
		{"spike missing timing", "spike:100,900", "missing '@START+DURATION'"},
		{"spike missing duration", "spike:100,900@5", "missing '+DURATION'"},
		{"diurnal missing period", "diurnal:10..90", "missing '/PERIOD'"},
		{"diurnal missing range", "diurnal:90/5", "missing '..'"},
		{"bursty wrong arity", "bursty:10,200", "want 4 comma-separated numbers"},
		{"invalid profile", "steady:-5", "Rate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := parseProfileArg(tc.spec)
			if err == nil {
				t.Fatalf("parseProfileArg(%q) accepted a bad spec: %v", tc.spec, p)
			}
			msg := err.Error()
			if !strings.Contains(msg, tc.wantErr) {
				t.Errorf("error %q missing the specific cause %q", msg, tc.wantErr)
			}
			for _, line := range grammarLines {
				if !strings.Contains(msg, line) {
					t.Errorf("error for %q missing grammar line %q:\n%s", tc.spec, line, msg)
				}
			}
		})
	}
}

// TestParseProfileArgValid: good specs pass through untouched and an empty
// spec keeps the closed-loop default (nil profile, no error).
func TestParseProfileArgValid(t *testing.T) {
	p, err := parseProfileArg("")
	if err != nil || p != nil {
		t.Fatalf("empty spec: got (%v, %v), want (nil, nil)", p, err)
	}
	cases := []struct {
		spec string
		want edisim.LoadProfile
	}{
		{"steady:120", edisim.SteadyLoad{Rate: 120}},
		{"spike:120,600@6+6", edisim.SpikeLoad{Base: 120, Peak: 600, Start: 6, Duration: 6}},
		{"diurnal:30..230/12", edisim.DiurnalLoad{Min: 30, Max: 230, Period: 12}},
		{"bursty:50,400,2,8", edisim.BurstyLoad{Base: 50, Burst: 400, MeanBurst: 2, MeanGap: 8}},
	}
	for _, tc := range cases {
		p, err := parseProfileArg(tc.spec)
		if err != nil {
			t.Errorf("parseProfileArg(%q): %v", tc.spec, err)
			continue
		}
		if p != tc.want {
			t.Errorf("parseProfileArg(%q) = %#v, want %#v", tc.spec, p, tc.want)
		}
	}
}

// TestParseShed: a given parameter is kept as written or rejected, never
// truncated, overflowed or turned into the policy default, and a spec that
// parses passes ShedPolicy.Validate.
func TestParseShed(t *testing.T) {
	cases := []struct {
		spec    string
		want    edisim.ShedPolicy
		wantErr string // empty when the spec must parse
	}{
		{"", edisim.ShedPolicy{}, ""},
		{"drop", edisim.ShedPolicy{Mode: edisim.ShedDropTail}, ""},
		{" drop : 64 ", edisim.ShedPolicy{Mode: edisim.ShedDropTail, Queue: 64}, ""},
		{"drop:1", edisim.ShedPolicy{Mode: edisim.ShedDropTail, Queue: 1}, ""},
		{"deadline", edisim.ShedPolicy{Mode: edisim.ShedDeadline}, ""},
		{"deadline:0.5", edisim.ShedPolicy{Mode: edisim.ShedDeadline, Deadline: 0.5}, ""},
		{"priority:0.3", edisim.ShedPolicy{Mode: edisim.ShedPriority, LowFrac: 0.3}, ""},
		{"priority:1", edisim.ShedPolicy{Mode: edisim.ShedPriority, LowFrac: 1}, ""},
		{"drop:0.4", edisim.ShedPolicy{}, "integer >= 1"},
		{"drop:2.5", edisim.ShedPolicy{}, "integer >= 1"},
		{"drop:1e300", edisim.ShedPolicy{}, "integer >= 1"},
		{"drop:99999999999999999999", edisim.ShedPolicy{}, "integer >= 1"},
		{"drop:0", edisim.ShedPolicy{}, "integer >= 1"},
		{"drop:-3", edisim.ShedPolicy{}, "integer >= 1"},
		{"drop:", edisim.ShedPolicy{}, "integer >= 1"},
		{"deadline:-1", edisim.ShedPolicy{}, "positive number"},
		{"deadline:0", edisim.ShedPolicy{}, "positive number"},
		{"deadline:NaN", edisim.ShedPolicy{}, "positive number"},
		{"deadline:Inf", edisim.ShedPolicy{}, "deadline"},
		{"deadline:soon", edisim.ShedPolicy{}, "positive number"},
		{"priority:1.5", edisim.ShedPolicy{}, "fraction"},
		{"priority:0", edisim.ShedPolicy{}, "positive number"},
		{"lifo:3", edisim.ShedPolicy{}, "unknown mode"},
	}
	for _, tc := range cases {
		p, err := parseShed(tc.spec)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("parseShed(%q): %v", tc.spec, err)
		case tc.wantErr == "" && p != tc.want:
			t.Errorf("parseShed(%q) = %#v, want %#v", tc.spec, p, tc.want)
		case tc.wantErr != "" && err == nil:
			t.Errorf("parseShed(%q) accepted a bad spec: %#v", tc.spec, p)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("parseShed(%q) error %q does not mention %q", tc.spec, err, tc.wantErr)
		}
	}
}

// FuzzParseShed guards the -shed grammar: any spec parseShed accepts
// yields a policy that passes Validate, and a parameter it accepts is kept
// as written rather than left at zero for the policy default to replace.
// Plain `go test` runs the seed corpus; `go test -fuzz FuzzParseShed`
// explores further.
func FuzzParseShed(f *testing.F) {
	for _, spec := range []string{
		"", "drop", "drop:64", " drop : 8 ", "drop:0.4", "drop:2.5", "drop:1e300", "drop:-1",
		"deadline", "deadline:0.5", "deadline:-1", "deadline:NaN", "deadline:Inf", "deadline:0x1p-2",
		"priority", "priority:0.2", "priority:1.5", "priority:1", "bogus:1", "drop:+7", ":", "drop::1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := parseShed(spec)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%q parsed to %#v, which fails Validate: %v", spec, p, err)
		}
		if _, param, ok := strings.Cut(spec, ":"); ok {
			switch p.Mode {
			case edisim.ShedDropTail:
				if p.Queue < 1 {
					t.Fatalf("%q parsed to queue bound %d", spec, p.Queue)
				}
			case edisim.ShedDeadline:
				if !(p.Deadline > 0) {
					t.Fatalf("%q (parameter %q) parsed to deadline %g", spec, param, p.Deadline)
				}
			case edisim.ShedPriority:
				if !(p.LowFrac > 0) {
					t.Fatalf("%q (parameter %q) parsed to low-priority fraction %g", spec, param, p.LowFrac)
				}
			default:
				t.Fatalf("%q with a parameter parsed to mode %q", spec, p.Mode)
			}
		}
	})
}
