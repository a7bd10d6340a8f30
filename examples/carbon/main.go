// Carbon: the energy/carbon/price layers over the paper's cost model —
// compare the calibrated linear and component TDP-curve power models per
// platform, then price fleets across electricity-grid regions (operational
// and embodied carbon, regional tariffs, an explicit carbon price) with the
// CarbonStudy and TCOStudy workloads.
//
// Uses only the public edisim package. The studies are closed-form, so
// -quick changes nothing; the flag exists so CI can run every example
// uniformly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"edisim"
)

func main() {
	flag.Bool("quick", false, "accepted for CI uniformity (the studies are instant)")
	flag.Parse()

	micro, brawny := edisim.BaselinePair()

	// Layer 1 — node power models. The linear model is the paper's measured
	// calibration; the TDP curve rebuilds the envelope from component data
	// (CPU TDP interpolation, W/GB memory, disks, PSU overhead).
	fmt.Println("Power model endpoints, idle -> busy wall draw:")
	for _, p := range []*edisim.Platform{micro, brawny} {
		lin := p.PowerModelFor(edisim.PowerLinear)
		curve := p.PowerModelFor(edisim.PowerTDPCurve)
		fmt.Printf("  %-8s linear %6.2f -> %7.2f W    tdp-curve %6.2f -> %7.2f W\n",
			p.Label, float64(lin.IdleDraw()), float64(lin.BusyDraw()),
			float64(curve.IdleDraw()), float64(curve.BusyDraw()))
	}

	// Layer 2 — grid regions: one row holds each region's carbon
	// intensity and electricity price.
	fmt.Println("\nGrid regions (gCO2e/kWh, USD/kWh):")
	for _, g := range edisim.Regions() {
		fmt.Printf("  %-14s %5.0f g/kWh   $%.3f/kWh   %s\n", g.Region, float64(g.Grams), g.Price, g.Label)
	}

	// Layer 3 — the studies. CarbonStudy prices the baseline pair's fleets
	// across three contrasting grids under the TDP-curve model with an $80
	// carbon price; TCOStudy adds its carbon columns for one region.
	scn := edisim.Scenario{
		Name:        "carbon-example",
		EnergyModel: "tdp-curve",
		Workloads: []edisim.Workload{
			&edisim.CarbonStudy{
				Platforms:           []edisim.PlatformRef{edisim.Ref(micro.Name), edisim.Ref(brawny.Name)},
				Regions:             []string{"eu-north", "us-east", "ap-south"},
				Utilization:         0.75,
				CarbonPricePerTonne: 80,
			},
			&edisim.TCOStudy{
				ID:                  "tco_eu_north",
				Platforms:           []edisim.PlatformRef{edisim.Ref(micro.Name), edisim.Ref(brawny.Name)},
				Utilization:         0.75,
				Region:              "eu-north",
				CarbonPricePerTonne: 80,
			},
		},
	}
	fmt.Println()
	if err := edisim.Run(context.Background(), scn, edisim.NewTextSink(os.Stdout)); err != nil {
		log.Fatal(err)
	}

	fmt.Println("low-carbon grids (eu-north hydro) shrink the carbon column to noise;")
	fmt.Println("coal-heavy grids (ap-south) make it a visible fraction of the electricity bill")
}
