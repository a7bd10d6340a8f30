package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestArgValidation drives the real flag/validation paths table-style: the
// probed invocations of the input-hardening bugfixes must exit 2 with a
// usage message on stderr — never panic, and never price a negative fleet.
func TestArgValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"util above 1", []string{"-custom", "-util", "1.5"}, "outside [0,1]"},
		{"util below 0", []string{"-custom", "-util", "-0.5"}, "outside [0,1]"},
		{"util above 1, matrix", []string{"-platforms", "edison", "-util", "2"}, "outside [0,1]"},
		{"negative micro", []string{"-custom", "-micro", "-5"}, "positive node counts"},
		{"zero micro", []string{"-custom", "-micro", "0"}, "positive node counts"},
		{"negative brawny", []string{"-custom", "-brawny", "-1"}, "positive node counts"},
		{"unknown platform", []string{"-platforms", "pdp11"}, `"pdp11"`},
		{"empty platform list", []string{"-platforms", " , "}, "no platforms"},
		{"bad node count", []string{"-platforms", "edison", "-nodes", "-4"}, "bad node count"},
		{"node count mismatch", []string{"-platforms", "edison", "-nodes", "3,4"}, "node counts for"},
		{"negative budget", []string{"-platforms", "edison", "-budget", "-100"}, "must be positive"},
		{"budget without platforms", []string{"-budget", "5000"}, "-platforms"},
		{"budget and nodes", []string{"-platforms", "edison", "-budget", "5000", "-nodes", "3"}, "mutually exclusive"},
		{"unknown format", []string{"-format", "xml"}, "unknown format"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("exit code %d, want 2\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tc.want)
			}
			// Every rejection explains itself on stderr ("tcocalc: ...");
			// flag-shaped mistakes additionally print the flag usage.
			if !strings.Contains(stderr.String(), "tcocalc:") {
				t.Fatalf("stderr lacks the error prefix:\n%s", stderr.String())
			}
		})
	}
}

// TestValidInvocations pins the happy paths, including the once-broken
// whitespace/duplicate platform lists and the equal-budget sizing flag.
func TestValidInvocations(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		want     []string // substrings of stdout
		wantNot  []string
		wantRows int // rows mentioning a platform label, 0 = don't check
	}{
		{
			name: "table 10 default",
			want: []string{"Table 10", "Web service, low utilization"},
		},
		{
			name: "custom valid",
			args: []string{"-custom", "-micro", "35", "-brawny", "3", "-util", "0.75"},
			want: []string{"Savings:"},
		},
		{
			name: "whitespace platform list",
			args: []string{"-platforms", "edison, dell-r620", "-util", "0.75"},
			want: []string{"Edison", "Dell"},
		},
		{
			name:    "duplicate platforms priced once",
			args:    []string{"-platforms", "edison,edison"},
			want:    []string{"Edison"},
			wantNot: []string{"Edison "}, // only checked via row count below
		},
		{
			name: "budget sizing",
			args: []string{"-platforms", "edison,dell", "-budget", "8236", "-util", "0.75"},
			want: []string{"sized to $8236", "Edison", "Dell"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit code %d\nstderr: %s", code, stderr.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(stdout.String(), w) {
					t.Fatalf("stdout missing %q:\n%s", w, stdout.String())
				}
			}
			if strings.Contains(stdout.String(), "-") && strings.Contains(stdout.String(), "$-") {
				t.Fatalf("output prices a negative fleet:\n%s", stdout.String())
			}
		})
	}
}

// TestDuplicatePlatformsPricedOnce: "-platforms edison,edison" must yield
// exactly one Edison row, not price the same fleet twice.
func TestDuplicatePlatformsPricedOnce(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-platforms", "edison,edison"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if n := strings.Count(stdout.String(), "Edison"); n != 1 {
		t.Fatalf("Edison appears %d times, want 1:\n%s", n, stdout.String())
	}
}

// TestCustomRejectsNegativeOutput: the exact probed invocation of the
// negative-fleet bug must fail cleanly rather than print "Savings: 108%".
func TestCustomRejectsNegativeOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-custom", "-micro", "-5"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if out := stdout.String(); strings.Contains(out, "$-") || strings.Contains(out, "Savings") {
		t.Fatalf("negative fleet still priced:\n%s", out)
	}
}

// TestBudgetSizingUnderArmedPricing: a budget-sized fleet under the
// curve power model in eu-central is sized with the pricing it is priced
// with, so each fleet's total fits the $10000 budget and one more node,
// priced the same way, does not.
func TestBudgetSizingUnderArmedPricing(t *testing.T) {
	armed := []string{"-platforms", "edison,dell", "-util", "0.75", "-energy", "tdp-curve", "-region", "eu-central", "-format", "json"}
	price := func(extra ...string) (nodes []int64, totals []float64) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(append(append([]string{}, armed...), extra...), &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		var doc struct {
			Artifacts []struct {
				Tables []struct {
					Rows [][]struct {
						Int int64   `json:"int"`
						Num float64 `json:"num"`
					} `json:"rows"`
				} `json:"tables"`
			} `json:"artifacts"`
		}
		if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
			t.Fatalf("decode: %v\n%s", err, stdout.String())
		}
		for _, row := range doc.Artifacts[0].Tables[0].Rows {
			nodes, totals = append(nodes, row[1].Int), append(totals, row[4].Num)
		}
		return nodes, totals
	}
	nodes, totals := price("-budget", "10000")
	_, over := price("-nodes", fmt.Sprintf("%d,%d", nodes[0]+1, nodes[1]+1))
	for i := range nodes {
		if totals[i] > 10000 || over[i] <= 10000 {
			t.Errorf("row %d: %d nodes cost $%v and %d cost $%v; want the $10000 budget between them",
				i, nodes[i], totals[i], nodes[i]+1, over[i])
		}
	}
}
