// Package exhibits regenerates every table and figure of the paper's
// evaluation (Section VI): each exhibit function runs the verification
// pipeline at the paper's parameters (bounded by a configurable state
// budget) and returns a rendered table plus structured rows. The
// cmd/paper-tables binary and the repository's benchmarks are thin
// wrappers around this package.
package exhibits

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/statestore"
)

// Table is a rendered exhibit: a title, column headers and rows, plus
// optional free-form notes (counterexample paths, deviations from the
// paper).
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Stages accumulates the per-stage instrumentation of every
	// verification session the exhibit ran (cache-served stages are
	// marked Cached), for runtime accounting such as paper-tables
	// -stages.
	Stages []core.StageStat
}

// Add appends a row, stringifying each cell.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case bool:
			if v {
				row[i] = "Yes"
			} else {
				row[i] = "No"
			}
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a free-form note printed after the table.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteString("\n")
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		sb.WriteString("\n")
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("\n")
		sb.WriteString(n)
		sb.WriteString("\n")
	}
	return sb.String()
}

// Options bounds exhibit computations.
type Options struct {
	// MaxStates caps each state-space generation; instances beyond the
	// cap are reported as "capped" rather than failing the whole exhibit.
	// Zero uses DefaultMaxStates.
	MaxStates int
	// Quick shrinks each exhibit to its smallest meaningful instances,
	// for tests and fast demos.
	Quick bool
	// Workers sets the state-space exploration worker count (0 = all
	// cores, 1 = sequential). Exhibit contents are identical for any
	// value; only wall-clock time changes.
	Workers int
	// MemBudget bounds (in bytes) the resident state storage of each
	// exploration; past it, state storage spills to temp files. Zero
	// keeps everything in RAM. Exhibit contents are identical for any
	// budget — only memory use and wall-clock time change.
	MemBudget int64
	// Reduction enables the static τ-confluence partial-order reduction
	// for each exploration. Verdict and quotient columns are identical;
	// raw state counts shrink for programs whose IR licenses pruning
	// (the hand-coded registry encodings carry no IR, so Table II is
	// unaffected unless run over BBVL models).
	Reduction bool
}

// DefaultMaxStates is the per-instance exploration budget of full runs.
const DefaultMaxStates = 2_500_000

func (o Options) maxStates() int {
	if o.MaxStates > 0 {
		return o.MaxStates
	}
	if o.Quick {
		return 300_000
	}
	return DefaultMaxStates
}

// coreConfig builds the verification configuration every exhibit uses
// for one instance.
func (o Options) coreConfig(threads, ops int) core.Config {
	return core.Config{
		Threads:   threads,
		Ops:       ops,
		MaxStates: o.maxStates(),
		Workers:   o.Workers,
		MemBudget: o.MemBudget,
		Reduction: o.Reduction,
		Backend:   statestore.Runtime(),
	}
}

const capped = "(capped)"
