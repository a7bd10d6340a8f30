package main

import (
	"strings"
	"testing"
)

func TestMediansKeepsMiddleRunPerName(t *testing.T) {
	out := `BenchmarkA 100 30.0 ns/op 0 B/op 0 allocs/op
BenchmarkB/nodes=8 10 5.0 ns/op
BenchmarkA 100 10.0 ns/op 0 B/op 0 allocs/op
BenchmarkA 100 20.0 ns/op 0 B/op 0 allocs/op
BenchmarkB/nodes=8 10 7.0 ns/op
`
	recs, err := parse(strings.NewReader(out), "x")
	if err != nil {
		t.Fatal(err)
	}
	got := medians(recs)
	if len(got) != 2 || got[0].Name != "A" || got[0].NsPerOp != 20 ||
		got[1].Name != "B/nodes=8" || got[1].NsPerOp != 5 || got[1].Fleet != 8 {
		t.Fatalf("medians = %+v, want A at 20 ns/op then B/nodes=8 at 5 ns/op", got)
	}
}
