package edisim

import (
	"fmt"
	"testing"
)

// FuzzParseLoadProfile guards the -load grammar against drift from the
// display form: any spec ParseLoadProfile accepts yields a profile whose
// String() re-parses to an equal profile. Plain `go test` runs the seed
// corpus; `go test -fuzz FuzzParseLoadProfile` explores further.
func FuzzParseLoadProfile(f *testing.F) {
	for _, spec := range []string{
		"steady:400", " steady:12.5 ", "spike:120,600@6+4", "diurnal:50..400/86400",
		"bursty:100,800,2,10", "", "steady:", "steady:-1", "steady:1e400", "spike:1,2@3",
		"diurnal:1..2", "diurnal:2..1/5", "bursty:1,2,3", "bogus:1", "steady:NaN", "spike:0x1p4,32@1+1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseLoadProfile(spec)
		if err != nil || p == nil {
			return
		}
		s := fmt.Sprint(p)
		q, err := ParseLoadProfile(s)
		if err != nil {
			t.Fatalf("%q parsed to %#v, whose String %q does not re-parse: %v", spec, p, s, err)
		}
		if q != p {
			t.Fatalf("%q parsed to %#v, but its String %q re-parses to %#v", spec, p, s, q)
		}
	})
}

// FuzzParseFaultPlan guards the -faults grammar: any plan ParseFaultPlan
// accepts has at least one event and passes Validate.
func FuzzParseFaultPlan(f *testing.F) {
	for _, spec := range []string{
		"node_crash@30+120:slave[1]", "straggler@10+60x0.25:web[2]", "link_degrade@5x0.5:slave",
		"link_cut@2+1:master; node_crash@1:web", "", ";", " ; ; ", "node_crash@x:web",
		"straggler@1x:web", "node_crash@1:web[", "node_crash@1:web[-1]", "node_crash@-1:web",
		"meteor@1:web", "straggler@1+1x0:web", "node_crash@1+NaN:web",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fp, err := ParseFaultPlan(spec)
		if err != nil || fp == nil {
			return
		}
		if err := fp.Validate(); err != nil {
			t.Fatalf("%q was accepted but does not validate: %v", spec, err)
		}
		if len(fp.Events) == 0 {
			t.Fatalf("%q was accepted with no events", spec)
		}
	})
}
