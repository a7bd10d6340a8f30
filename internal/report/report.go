// Package report renders experiment output: aligned ASCII tables, CSV, and
// labeled x/y series ("figures"). Every cmd tool and ledger row goes
// through these types so paper-vs-measured comparisons look uniform.
//
// Cells are typed Values (number + unit + display hint), so emitters beyond
// the aligned-text renderer — the stable JSON schema and CSV — keep each
// number's dimension instead of flattening everything to strings at
// construction time. The text renderer is the reference output: a Value
// renders exactly the way the pre-typed stringly tables did.
package report

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates what a Value holds.
type Kind int

const (
	// KindString is a label cell (row names, cluster labels).
	KindString Kind = iota
	// KindFloat is a measurement; text-rendered with %.4g like every float
	// cell has been since the first table.
	KindFloat
	// KindInt is an exact count (node counts, replica counts).
	KindInt
)

// Value is one typed table cell: a measurement with its unit and display
// hint, or a plain label. The zero value is the empty string cell.
type Value struct {
	Kind Kind
	Str  string  // KindString
	Num  float64 // KindFloat
	Int  int64   // KindInt
	// Unit tags the measurement's dimension ("s", "J", "req/s", "W", "$").
	// It does not affect text rendering — units stay in headers and titles
	// there — but survives into the JSON emitter (CSV surfaces column
	// units only, as a comment line).
	Unit string
}

// S builds a label cell.
func S(s string) Value { return Value{Kind: KindString, Str: s} }

// Num builds a measurement cell with a unit tag.
func Num(v float64, unit string) Value { return Value{Kind: KindFloat, Num: v, Unit: unit} }

// Count builds an exact integer cell with a unit tag.
func Count(n int64, unit string) Value { return Value{Kind: KindInt, Int: n, Unit: unit} }

// Cell converts an arbitrary AddRow argument to a Value. Values pass
// through; floats become KindFloat, ints KindInt, everything else is
// stringified with %v exactly as AddRow always did.
func Cell(c any) Value {
	switch v := c.(type) {
	case Value:
		return v
	case float64:
		return Value{Kind: KindFloat, Num: v}
	case int:
		return Value{Kind: KindInt, Int: int64(v)}
	case int64:
		return Value{Kind: KindInt, Int: v}
	case string:
		return S(v)
	default:
		return S(fmt.Sprintf("%v", c))
	}
}

// String renders the cell for the aligned-text table: floats with %.4g,
// ints exactly, labels as-is — byte-identical to the pre-typed renderer.
func (v Value) String() string {
	switch v.Kind {
	case KindFloat:
		return trimFloat(v.Num)
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	default:
		return v.Str
	}
}

// Float reports the cell's numeric value (ints widen), and whether it is
// numeric at all.
func (v Value) Float() (float64, bool) {
	switch v.Kind {
	case KindFloat:
		return v.Num, true
	case KindInt:
		return float64(v.Int), true
	default:
		return 0, false
	}
}

// Table is a simple column-aligned table over typed cells.
type Table struct {
	Title   string
	Headers []string
	// Units optionally tags each column's dimension (same length as
	// Headers, "" where dimensionless); emitters carry it, the text
	// renderer ignores it.
	Units []string
	Rows  [][]Value
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// WithUnits sets the per-column unit tags and returns the table. It must be
// given one unit per header ("" for dimensionless columns).
func (t *Table) WithUnits(units ...string) *Table {
	if len(units) != len(t.Headers) {
		panic(fmt.Sprintf("report: table %q has %d columns, got %d units",
			t.Title, len(t.Headers), len(units)))
	}
	t.Units = units
	return t
}

// AddRow appends a row; cells may be Values or any plain value (floats,
// ints, strings), which convert via Cell.
func (t *Table) AddRow(cells ...any) {
	row := make([]Value, len(cells))
	for i, c := range cells {
		row[i] = Cell(c)
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4g", v)
	return s
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	cells := make([][]string, len(t.Rows))
	for ri, r := range t.Rows {
		cells[ri] = make([]string, len(r))
		for i, c := range r {
			s := c.String()
			cells[ri][i] = s
			if i < len(widths) && len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range cells {
		line(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quoted where needed).
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Headers)
	for _, r := range t.Rows {
		cells := make([]string, len(r))
		for i, c := range r {
			cells[i] = c.String()
		}
		writeCSVRow(&b, cells)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		b.WriteString(c)
	}
	b.WriteByte('\n')
}

// Series is one named curve of a figure: y values over shared x values.
type Series struct {
	Label string
	Y     []float64
}

// Figure is a set of curves over a common x axis, mirroring a paper figure.
// XLabel and YLabel double as the axes' units in the JSON emitter.
type Figure struct {
	Name   string // e.g. "Figure 4"
	XLabel string
	YLabel string
	X      []float64
	Series []*Series
}

// NewFigure creates an empty figure.
func NewFigure(name, xlabel, ylabel string, x []float64) *Figure {
	return &Figure{Name: name, XLabel: xlabel, YLabel: ylabel, X: x}
}

// Add appends a curve; it must have one y per x.
func (f *Figure) Add(label string, y []float64) {
	if len(y) != len(f.X) {
		panic(fmt.Sprintf("report: series %q has %d points, figure has %d x values",
			label, len(y), len(f.X)))
	}
	f.Series = append(f.Series, &Series{Label: label, Y: y})
}

// Table renders the figure as a table with one column per series. The x
// column keeps the figure's x label; series columns carry the y label as
// their unit tag.
func (f *Figure) Table() *Table {
	headers := append([]string{f.XLabel}, make([]string, len(f.Series))...)
	units := make([]string, len(f.Series)+1)
	for i, s := range f.Series {
		headers[i+1] = s.Label
		units[i+1] = f.YLabel
	}
	t := NewTable(fmt.Sprintf("%s — %s", f.Name, f.YLabel), headers...).WithUnits(units...)
	for i, x := range f.X {
		row := make([]any, 0, len(f.Series)+1)
		row = append(row, trimFloat(x))
		for _, s := range f.Series {
			row = append(row, Num(s.Y[i], f.YLabel))
		}
		t.AddRow(row...)
	}
	return t
}

// String renders the figure via its table form.
func (f *Figure) String() string { return f.Table().String() }

// Comparison records one published paper value against the simulator's
// measurement: a row of the ledger `cmd/paper -experiments` prints.
type Comparison struct {
	Artifact string // e.g. "Table 8 / wordcount / 35 Edison"
	Metric   string // e.g. "energy (J)"
	Paper    float64
	Measured float64
}

// RatioError reports measured/paper as a factor (1.0 = exact).
func (c Comparison) RatioError() float64 {
	if c.Paper == 0 {
		return 0
	}
	return c.Measured / c.Paper
}

// String renders one comparison line.
func (c Comparison) String() string {
	return fmt.Sprintf("%-48s %-18s paper=%-10.4g sim=%-10.4g ratio=%.2f",
		c.Artifact, c.Metric, c.Paper, c.Measured, c.RatioError())
}
