package jobs

import (
	"fmt"
	"strconv"
	"strings"

	"edisim/internal/hw"
	"edisim/internal/mapred"
	"edisim/internal/units"
)

// Input geometry from §5.2: wordcount reads 200 files totaling 1 GB;
// logcount reads 500 log files totaling 1 GB; terasort sorts 10 GB in
// 64 MB blocks (168 input splits).
const (
	WordcountFiles = 200
	WordcountBytes = 1 * units.GB
	LogcountFiles  = 500
	LogcountBytes  = 1 * units.GB
	TerasortBytes  = 10 * units.GB
	PiSamples      = 10e9
)

// InputBytes is the input a job's per-byte efficiency (MB per joule, GB
// per dollar) is read over: the dataset it stages, or 0 for the
// compute-bound pi, whose per-byte ratios mean nothing.
func InputBytes(job string) units.Bytes {
	switch job {
	case "wordcount", "wordcount2":
		return WordcountBytes
	case "logcount", "logcount2":
		return LogcountBytes
	case "terasort":
		return TerasortBytes
	case "pi":
		return 0
	}
	panic(fmt.Sprintf("jobs: unknown job %q", job))
}

// InputFiles names the HDFS input files for a job with the given count.
func InputFiles(job string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("/input/%s/part-%05d", job, i)
	}
	return out
}

// --- Wordcount -------------------------------------------------------------

// WordcountMap splits a line into words and emits <word,1>.
func WordcountMap(record string, emit func(k, v string)) {
	for _, w := range strings.Fields(record) {
		emit(w, "1")
	}
}

// SumReduce adds up integer values — the reducer (and combiner) for both
// wordcount and logcount.
func SumReduce(key string, values []string, emit func(k, v string)) {
	sum := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			panic(fmt.Sprintf("jobs: non-numeric count %q for %q", v, key))
		}
		sum += n
	}
	emit(key, strconv.Itoa(sum))
}

// Wordcount is the original example: 200 small files, one map container
// per file, no combiner, no input combining (§5.2.1). Container sizes and
// cost rates come from the platform's catalog entry.
func Wordcount(reduces int, p *hw.Platform) *mapred.JobDef {
	h := p.Hadoop
	return &mapred.JobDef{
		Name:           "wordcount",
		Inputs:         InputFiles("wordcount", WordcountFiles),
		NumReduces:     reduces,
		UseCombiner:    false,
		MapMemoryMB:    h.SmallMapMemoryMB,
		ReduceMemoryMB: h.ReduceMemoryMB,
		AMMemoryMB:     h.AMMemoryMB,
		Cost:           costFor("wordcount", p),
		Map:            WordcountMap,
		Reduce:         SumReduce,
	}
}

// Wordcount2 adds CombineFileInputFormat (splits capped at the platform's
// CombineSplit, one per vcore) and a combiner (§5.2.1 "optimized
// wordcount").
func Wordcount2(reduces int, p *hw.Platform) *mapred.JobDef {
	j := Wordcount(reduces, p)
	j.Name = "wordcount2"
	j.CombineInput = true
	j.UseCombiner = true
	j.MapMemoryMB = p.Hadoop.LargeMapMemoryMB
	j.MaxSplitSize = p.Hadoop.CombineSplit
	j.Cost = costFor("wordcount2", p)
	return j
}

// --- Logcount ----------------------------------------------------------------

// LogcountMap extracts <"date level", 1> from a Hadoop log line, e.g.
// <"2016-02-01 INFO", 1> (§5.2.2).
func LogcountMap(record string, emit func(k, v string)) {
	fields := strings.Fields(record)
	if len(fields) < 3 {
		return
	}
	date := fields[0]
	level := fields[2]
	switch level {
	case "INFO", "WARN", "DEBUG", "ERROR", "FATAL", "TRACE":
		emit(date+" "+level, "1")
	}
}

// Logcount counts log entries per (date, level); the original ships a
// combiner but does not combine input files.
func Logcount(reduces int, p *hw.Platform) *mapred.JobDef {
	h := p.Hadoop
	return &mapred.JobDef{
		Name:           "logcount",
		Inputs:         InputFiles("logcount", LogcountFiles),
		NumReduces:     reduces,
		UseCombiner:    true, // "does set the Combiner class" (§5.2.2)
		MapMemoryMB:    h.SmallMapMemoryMB,
		ReduceMemoryMB: h.ReduceMemoryMB,
		AMMemoryMB:     h.AMMemoryMB,
		Cost:           costFor("logcount", p),
		Map:            LogcountMap,
		Reduce:         SumReduce,
	}
}

// Logcount2 additionally combines the 500 small inputs into one split per
// vcore (§5.2.2).
func Logcount2(reduces int, p *hw.Platform) *mapred.JobDef {
	j := Logcount(reduces, p)
	j.Name = "logcount2"
	j.CombineInput = true
	j.MapMemoryMB = p.Hadoop.LargeMapMemoryMB
	j.MaxSplitSize = p.Hadoop.CombineSplit
	j.Cost = costFor("logcount2", p)
	return j
}

// --- Pi estimation -----------------------------------------------------------

// PiMap consumes one "offset numSamples" record and emits inside/outside
// counts from a quasi-random (Halton-sequence) point set, exactly like the
// Hadoop example's QuasiMonteCarlo mapper.
func PiMap(record string, emit func(k, v string)) {
	parts := strings.Fields(record)
	if len(parts) != 2 {
		panic(fmt.Sprintf("jobs: malformed pi record %q", record))
	}
	offset, err1 := strconv.ParseInt(parts[0], 10, 64)
	n, err2 := strconv.ParseInt(parts[1], 10, 64)
	if err1 != nil || err2 != nil {
		panic(fmt.Sprintf("jobs: malformed pi record %q", record))
	}
	var inside, outside int64
	for i := int64(0); i < n; i++ {
		x := halton(offset+i, 2) - 0.5
		y := halton(offset+i, 3) - 0.5
		if x*x+y*y <= 0.25 {
			inside++
		} else {
			outside++
		}
	}
	emit("inside", strconv.FormatInt(inside, 10))
	emit("outside", strconv.FormatInt(outside, 10))
}

// halton returns element i of the Halton low-discrepancy sequence in the
// given base.
func halton(i int64, base int64) float64 {
	f := 1.0
	r := 0.0
	for i > 0 {
		f /= float64(base)
		r += f * float64(i%base)
		i /= base
	}
	return r
}

// PiEstimate folds a pi LocalRun output into the π estimate.
func PiEstimate(out []mapred.KV) float64 {
	var inside, total int64
	for _, kv := range out {
		n, err := strconv.ParseInt(kv.Value, 10, 64)
		if err != nil {
			panic(fmt.Sprintf("jobs: bad pi output %v", kv))
		}
		total += n
		if kv.Key == "inside" {
			inside += n
		}
	}
	if total == 0 {
		return 0
	}
	return 4 * float64(inside) / float64(total)
}

// PiReduce sums partial counts per key.
func PiReduce(key string, values []string, emit func(k, v string)) {
	SumReduce(key, values, emit)
}

// Pi is the computationally-intensive job: 10 billion samples over the
// platform's full-scale task count (70 on the full Edison cluster, 24 on
// Dell), one reducer (§5.2.3).
func Pi(p *hw.Platform) *mapred.JobDef {
	h := p.Hadoop
	maps := h.FullScaleTasks
	return &mapred.JobDef{
		Name:           "pi",
		Inputs:         InputFiles("pi", maps),
		NumReduces:     1,
		UseCombiner:    false,
		MapMemoryMB:    h.LargeMapMemoryMB,
		ReduceMemoryMB: h.ReduceMemoryMB,
		AMMemoryMB:     h.AMMemoryMB,
		Cost:           piCost(maps, p),
		Map:            PiMap,
		Reduce:         PiReduce,
	}
}

// --- Terasort ----------------------------------------------------------------

// TerasortMap emits <key, record> with the 10-byte key prefix.
func TerasortMap(record string, emit func(k, v string)) {
	if len(record) < 10 {
		return
	}
	emit(record[:10], record)
}

// TerasortReduce emits records in key order (values under one key keep
// their arrival order, which suffices for sortedness by key).
func TerasortReduce(key string, values []string, emit func(k, v string)) {
	for _, v := range values {
		emit(key, v)
	}
}

// Terasort sorts 10 GB staged by teragen: 64 MB blocks on EVERY cluster
// (the paper equalizes block size for fairness), one reducer per vcore of
// the full-scale cluster (70 on Edison, 24 on Dell).
func Terasort(p *hw.Platform) *mapred.JobDef {
	h := p.Hadoop
	return &mapred.JobDef{
		Name:           "terasort",
		Inputs:         InputFiles("terasort", 1), // one big teragen output file
		NumReduces:     h.FullScaleTasks,
		UseCombiner:    false,
		MapMemoryMB:    h.LargeMapMemoryMB,
		ReduceMemoryMB: h.ReduceMemoryMB,
		AMMemoryMB:     h.AMMemoryMB,
		Cost:           costFor("terasort", p),
		Map:            TerasortMap,
		Reduce:         TerasortReduce,
	}
}
