package core

import (
	"testing"

	"edisim/internal/hw"
)

// TestMapReduceHonorsEnergyModel: Config.Energy reaches the Hadoop
// testbeds of the MapReduce experiments, so the §5.2.4 terasort energies
// under the TDP-curve model differ from the linear model's, while the job
// times — which no power model touches — stay put.
func TestMapReduceHonorsEnergyModel(t *testing.T) {
	e, ok := Lookup("sec524_terasort")
	if !ok {
		t.Fatal("sec524_terasort not registered")
	}
	measured := func(kind hw.PowerModelKind) map[string]float64 {
		m := map[string]float64{}
		for _, c := range e.Run(Config{Seed: 1, Quick: true, Energy: kind}).Comparisons {
			m[c.Artifact+" / "+c.Metric] = c.Measured
		}
		return m
	}
	lin, tdp := measured(hw.PowerLinear), measured(hw.PowerTDPCurve)
	for _, label := range []string{"35E", "2D"} {
		row := "Table 8 / terasort / " + label
		if lin[row+" / time s"] != tdp[row+" / time s"] {
			t.Errorf("%s: job time moved with the power model: %g vs %g", row, lin[row+" / time s"], tdp[row+" / time s"])
		}
		if l, c := lin[row+" / energy J"], tdp[row+" / energy J"]; l <= 0 || l == c {
			t.Errorf("%s: energy %g J under linear, %g J under tdp-curve; want positive and different", row, l, c)
		}
	}
}
