// Webservice: drive the LLMP stack (Lighttpd + memcached + MySQL behind
// HAProxy) on both middle tiers at a few httperf concurrency levels,
// showing the paper's headline trade-off: comparable peak throughput,
// higher micro-server latency, and ≈3.5× better energy efficiency (§5.1).
//
// Uses only the public edisim package (the composition toolkit: the full
// row of Table6, each tier built with WebTier.Build and run by hand);
// -quick trims the sweep for CI smoke runs. See examples/mixedtier for the
// declarative Scenario API.
package main

import (
	"flag"
	"fmt"

	"edisim"
)

func main() {
	quick := flag.Bool("quick", false, "fewer concurrency levels, shorter windows (CI smoke run)")
	flag.Parse()

	concs := []float64{128, 512, 1024}
	duration := 8.0
	if *quick {
		concs = []float64{512}
		duration = 4.0
	}
	fmt.Println("httperf sweep, 93% cache hit, no image queries (Figure 4 excerpt)")
	fmt.Printf("%-8s %-8s %-10s %-10s %-10s %-12s\n",
		"tier", "conn/s", "req/s", "delay", "power", "req/joule")

	for _, conc := range concs {
		for _, tier := range edisim.Table6()[0].Tiers {
			rc := edisim.WebRunConfig{Concurrency: conc, Duration: duration}
			dep := tier.Build(edisim.PowerLinear, nil, 1)
			dep.WarmFor(rc)
			r := dep.Run(rc)
			fmt.Printf("%-8s %-8.0f %-10.0f %-10s %-10s %-12.1f\n",
				tier.Web.Label, conc, r.Throughput,
				fmt.Sprintf("%.1fms", r.MeanDelay*1e3),
				fmt.Sprintf("%.1fW", float64(r.MeanPower)),
				r.PerWatt())
		}
	}
	fmt.Println("\nreq/joule at peak is the paper's 3.5x energy-efficiency result")
}
