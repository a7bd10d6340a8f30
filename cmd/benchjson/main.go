// Command benchjson converts `go test -bench` output into machine-readable
// JSON records — the repo's perf trajectory format (BENCH_scale.json).
//
// It reads benchmark output from stdin and writes a JSON array of records,
// one per benchmark result line:
//
//	go test ./internal/cluster -bench BenchmarkScale -benchtime 2000x |
//	    benchjson -label pr7 -o BENCH_scale.json
//
// Flags:
//
//	-o file    write to file instead of stdout
//	-append    merge with the records already in -o (the trajectory grows
//	           across PRs; earlier records are preserved verbatim)
//	-label s   stamp each new record with a label (e.g. the PR number)
//	-median    keep one record per benchmark name, the one with the median
//	           ns/op (for repeated runs: go test -count N)
//
// A record carries the benchmark name (Benchmark prefix stripped), the
// fleet size parsed from a "nodes=N" component of the name when present,
// and the standard per-op measurements. No timestamps: the file must be
// byte-stable for a given benchmark output, so re-runs diff cleanly.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Record is one benchmark result in the perf trajectory.
type Record struct {
	Label      string  `json:"label,omitempty"`
	Name       string  `json:"name"`
	Fleet      int     `json:"fleet,omitempty"` // nodes=N parsed from the name
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	AllocsOp   float64 `json:"allocs_per_op"`
}

var fleetRE = regexp.MustCompile(`nodes=(\d+)`)

// parse extracts benchmark records from go test -bench output.
func parse(r io.Reader, label string) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "Benchmark...: some diagnostic"
		}
		rec := Record{
			Label:      label,
			Name:       strings.TrimPrefix(fields[0], "Benchmark"),
			Iterations: iters,
		}
		if m := fleetRE.FindStringSubmatch(rec.Name); m != nil {
			rec.Fleet, _ = strconv.Atoi(m[1])
		}
		// The rest of the line is value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q in %q", fields[i], line)
			}
			switch fields[i+1] {
			case "ns/op":
				rec.NsPerOp = v
			case "B/op":
				rec.BytesPerOp = v
			case "allocs/op":
				rec.AllocsOp = v
			}
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// medians keeps, for each benchmark name in first-seen order, the record
// with the median ns/op (the lower middle one of an even count).
func medians(recs []Record) []Record {
	var names []string
	byName := map[string][]Record{}
	for _, r := range recs {
		if _, ok := byName[r.Name]; !ok {
			names = append(names, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Record, 0, len(names))
	for _, name := range names {
		rs := byName[name]
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].NsPerOp < rs[j].NsPerOp })
		out = append(out, rs[(len(rs)-1)/2])
	}
	return out
}

func run(in io.Reader, outPath, label string, appendTo, median bool) error {
	recs, err := parse(in, label)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("benchjson: no benchmark lines on stdin")
	}
	if median {
		recs = medians(recs)
	}
	var all []Record
	if appendTo && outPath != "" {
		if prev, err := os.ReadFile(outPath); err == nil {
			if err := json.Unmarshal(prev, &all); err != nil {
				return fmt.Errorf("benchjson: existing %s is not a record array: %v", outPath, err)
			}
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	all = append(all, recs...)
	buf, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(outPath, buf, 0o644)
}

func main() {
	outPath := flag.String("o", "", "output file (default stdout)")
	appendTo := flag.Bool("append", false, "merge with records already in -o")
	label := flag.String("label", "", "label stamped on each new record")
	median := flag.Bool("median", false, "keep the median-ns/op record per benchmark name")
	flag.Parse()
	if err := run(os.Stdin, *outPath, *label, *appendTo, *median); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
