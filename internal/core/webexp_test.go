package core

import (
	"testing"

	"edisim/internal/hw"
)

// TestIdenticalPairKeepsBrawnyTier: with the same platform on both sides
// of the compared pair, the brawny side of fig10_fig11 and table7 still
// runs Table 6's 2 web + 1 cache tier. Its numbers must then equal the
// default pair's brawny (Dell) side at the same seed, which runs that tier
// on the same platform.
func TestIdenticalPairKeepsBrawnyTier(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates web points")
	}
	_, dell := hw.BaselinePair()
	def := Config{Seed: 1, Quick: true, Workers: 2}
	same := def
	same.Micro, same.Brawny = dell, dell

	e, _ := Lookup("fig10_fig11")
	want, got := e.Run(def).Figures[1].String(), e.Run(same).Figures[1].String()
	if got != want {
		t.Errorf("fig10_fig11 brawny side with micro = brawny = %s:\n%s\nwant the default pair's Dell side:\n%s", dell.Name, got, want)
	}

	e, _ = Lookup("table7")
	wantT, gotT := e.Run(def).Tables[0], e.Run(same).Tables[0]
	for r := range wantT.Rows {
		for _, c := range []int{2, 4, 6} { // DB (D), cache (D), total (D)
			if gotT.Rows[r][c] != wantT.Rows[r][c] {
				t.Errorf("table7 row %d %q = %v with micro = brawny = %s, want the default pair's %v",
					r, wantT.Headers[c], gotT.Rows[r][c], dell.Name, wantT.Rows[r][c])
			}
		}
	}
}
