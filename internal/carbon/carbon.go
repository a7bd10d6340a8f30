// Package carbon is the facility-and-carbon layer between the node power
// models (internal/hw) and the price layer (internal/tco): PUE multipliers
// turn IT joules into wall joules, a regional grid map turns wall kWh into
// operational gCO2e and gives the tariff they are bought at, and embodied-carbon amortization spreads a
// server's manufacturing footprint over its service life. The shape follows
// the cloud-carbon-exporter / Cloud Carbon Footprint methodology (SNIPPETS
// Snippet 1); intensity figures are Ember-style annual grid averages,
// rounded — they parameterize comparisons, not audits.
package carbon

import (
	"fmt"
	"strings"

	"edisim/internal/units"
)

// DefaultPUE is the datacenter power-usage-effectiveness multiplier applied
// when a config does not override it: hyperscaler fleets average ≈1.15
// (Snippet 1's sources).
const DefaultPUE = 1.15

// GramsPerKWh converts energy to mass of CO2-equivalent.
type GramsPerKWh = float64

// Grid is one region's electricity profile: its lookup key (the region
// grammar accepted by configs and CLIs), a display label, the annual
// average carbon intensity of its grid mix and its industrial electricity
// tariff.
type Grid struct {
	Region string
	Label  string
	Grams  GramsPerKWh // gCO2e per kWh drawn from the wall
	Price  float64     // USD per kWh drawn from the wall
}

// regions is the ordered regional grid map. Keys follow the familiar
// cloud-region grammar; intensities are rounded annual grid averages —
// hydro/nuclear-heavy eu-north at one extreme, coal-heavy ap-south at the
// other, with "global" as the world average. Tariffs are rounded recent
// industrial averages (PLATFORMS.md cites the sources); "global" prices
// at the paper's Table 9 US average.
var regions = []Grid{
	{"us-east", "US East (Virginia)", 379, 0.083},
	{"us-west", "US West (Oregon)", 230, 0.095},
	{"eu-west", "EU West (Ireland)", 316, 0.17},
	{"eu-north", "EU North (Stockholm)", 29, 0.09},
	{"eu-central", "EU Central (Frankfurt)", 381, 0.20},
	{"ap-south", "AP South (Mumbai)", 713, 0.10},
	{"ap-southeast", "AP Southeast (Singapore)", 408, 0.13},
	{"global", "World average", 480, 0.10},
}

// Regions returns the grid map in registration order.
func Regions() []Grid {
	out := make([]Grid, len(regions))
	copy(out, regions)
	return out
}

// RegionNames lists the accepted region keys (for CLI errors and docs).
func RegionNames() []string {
	out := make([]string, len(regions))
	for i, g := range regions {
		out[i] = g.Region
	}
	return out
}

// Lookup resolves a region key, case-insensitively and whitespace-tolerantly.
func Lookup(region string) (Grid, bool) {
	key := strings.ToLower(strings.TrimSpace(region))
	for _, g := range regions {
		if g.Region == key {
			return g, true
		}
	}
	return Grid{}, false
}

// MustLookup is Lookup for keys known valid by construction; it panics on
// unknown regions.
func MustLookup(region string) Grid {
	g, ok := Lookup(region)
	if !ok {
		panic(fmt.Sprintf("carbon: unknown region %q (want one of %s)",
			region, strings.Join(RegionNames(), ", ")))
	}
	return g
}

// Footprint is a carbon accounting split the way datacenter LCAs split it:
// operational (electricity × grid intensity) and embodied (manufacturing,
// amortized over service life). Grams of CO2-equivalent.
type Footprint struct {
	Operational float64
	Embodied    float64
}

// Total reports operational plus embodied grams.
func (f Footprint) Total() float64 { return f.Operational + f.Embodied }

// Operational converts metered IT-side joules into operational gCO2e: the
// PUE multiplier adds the facility's cooling/distribution overhead, the
// grid's intensity converts wall kWh to grams. pue values below 1 (including
// the zero value) mean "no facility overhead".
func Operational(energy units.Joules, pue float64, g Grid) float64 {
	if pue < 1 {
		pue = 1
	}
	kwh := float64(energy) / 3.6e6
	return kwh * pue * g.Grams
}

// Embodied amortizes the manufacturing footprint of nodes servers over the
// profile's service life and reports the share attributable to a window of
// seconds. A zero/negative life or footprint contributes nothing.
func Embodied(kgCO2e, lifeYears float64, nodes int, seconds float64) float64 {
	if kgCO2e <= 0 || lifeYears <= 0 || nodes <= 0 || seconds <= 0 {
		return 0
	}
	lifeSeconds := lifeYears * 365 * 24 * 3600
	return kgCO2e * 1000 * float64(nodes) * seconds / lifeSeconds
}
