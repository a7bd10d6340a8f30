package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// TestGolden pins four small websvc invocations byte for byte: a
// closed-loop sweep, a rolling-crash drill, an open-loop overload run with
// shedding, SLO and brownout, and a JSON document. Any drift in how the
// command builds, warms, faults or runs a tier fails here.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"sweep", []string{"-scale", "1/8", "-duration", "2"}},
		{"crash", []string{"-scale", "1/8", "-duration", "2", "-timeout", "0.5", "-crash", "1", "-downtime", "0.5"}},
		{"overload", []string{"-scale", "1/2", "-duration", "2", "-profile", "steady:800",
			"-shed", "deadline:0.5", "-slo", "0.01", "-brownout"}},
		{"json", []string{"-scale", "1/2", "-duration", "1", "-format", "json"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d\nstderr: %s", code, stderr.String())
			}
			if stderr.Len() != 0 {
				t.Fatalf("unexpected stderr: %s", stderr.String())
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Fatalf("websvc %v diverged from %s (got %d bytes, want %d); "+
					"run `go test -run TestGolden -update` only with a planned baseline refresh",
					tc.args, golden, len(stdout.Bytes()), len(want))
			}
		})
	}
}

// TestRunRejectsBadInput checks that bad flags, including a crash drill
// whose fault plan fails validation, exit 2 with the error on stderr
// instead of exiting the process.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "1/3"},
		{"-format", "xml"},
		{"-profile", "steady"},
		{"-shed", "lifo"},
		{"-nosuchflag"},
		{"-scale", "1/8", "-duration", "1", "-timeout", "0.5", "-crash", "1", "-downtime", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit code %d, want 2", args, code)
		}
		if stderr.Len() == 0 {
			t.Errorf("%v: no error on stderr", args)
		}
	}
}
