package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"edisim/internal/report"
)

// ledger is the paper-vs-simulated section of cmd/paper's committed -quick
// output, testdata/paper_quick.golden. It supplies the paper values the
// benchmark's comparisons are scored against and, at seed 1, the simulated
// values they must reproduce.
type ledger struct {
	// lines maps a comparison's rendered prefix (artifact and metric, as
	// report.Comparison.String pads them) to the ledger lines carrying it.
	lines map[string][]string
}

const ledgerHeader = "==== paper-vs-simulated ledger ===="

func loadLedger(path string) (ledger, error) {
	f, err := os.Open(path)
	if err != nil {
		return ledger{}, fmt.Errorf("ledger: %w", err)
	}
	defer f.Close()
	l := ledger{lines: map[string][]string{}}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == ledgerHeader {
			in = true
			continue
		}
		if !in {
			continue
		}
		if i := strings.Index(line, "paper="); i > 0 {
			l.lines[line[:i]] = append(l.lines[line[:i]], line)
		}
	}
	if err := sc.Err(); err != nil {
		return ledger{}, fmt.Errorf("ledger: %w", err)
	}
	if len(l.lines) == 0 {
		return ledger{}, fmt.Errorf("ledger: no %q section in %s", ledgerHeader, path)
	}
	return l, nil
}

func prefix(c report.Comparison) string {
	return fmt.Sprintf("%-48s %-18s ", c.Artifact, c.Metric)
}

// resolve fills in each comparison's paper value from the ledger where the
// workload did not supply it.
func (l ledger) resolve(comps []report.Comparison) ([]report.Comparison, error) {
	out := make([]report.Comparison, len(comps))
	for i, c := range comps {
		if c.Paper == 0 {
			lines := l.lines[prefix(c)]
			if len(lines) == 0 {
				return nil, fmt.Errorf("ledger: no paper value for %s / %s", c.Artifact, c.Metric)
			}
			field := strings.Fields(lines[0][len(prefix(c)):])[0]
			v, err := strconv.ParseFloat(strings.TrimPrefix(field, "paper="), 64)
			if err != nil {
				return nil, fmt.Errorf("ledger: %s / %s: %w", c.Artifact, c.Metric, err)
			}
			c.Paper = v
		}
		out[i] = c
	}
	return out, nil
}

// pin checks that every comparison the ledger carries renders to one of its
// ledger lines, and returns the mismatches.
func (l ledger) pin(comps []report.Comparison) []string {
	var bad []string
	pinned := 0
	for _, c := range comps {
		lines, ok := l.lines[prefix(c)]
		if !ok {
			continue // not part of the -quick run (e.g. scaled clusters)
		}
		pinned++
		got := c.String()
		found := false
		for _, want := range lines {
			if strings.TrimRight(want, " ") == strings.TrimRight(got, " ") {
				found = true
			}
		}
		if !found {
			bad = append(bad, fmt.Sprintf("got %q, ledger has %q", got, lines[0]))
		}
	}
	if pinned == 0 {
		bad = append(bad, "no comparison matched the ledger")
	}
	return bad
}

// paperErr is the mean |ln(simulated/paper)| over the comparisons.
func paperErr(comps []report.Comparison) (float64, error) {
	if len(comps) == 0 {
		return 0, fmt.Errorf("paper_err: no comparisons")
	}
	sum := 0.0
	for _, c := range comps {
		r := c.Measured / c.Paper
		if !(r > 0) || math.IsInf(r, 0) {
			return 0, fmt.Errorf("paper_err: %s / %s: simulated %v vs paper %v", c.Artifact, c.Metric, c.Measured, c.Paper)
		}
		sum += math.Abs(math.Log(r))
	}
	return sum / float64(len(comps)), nil
}
