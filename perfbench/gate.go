package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// paperSaving is the paper's measured EPI saving of the proposed design
// in percent, per scenario and mode: Maric, Abella & Valero, "Efficient
// cache architectures for reliable hybrid voltage operation using EDC
// codes", DATE 2013, Section IV-B (14%/12% at HP, 42%/39% at ULE). The
// headline experiment prints these only as text (its paper_saving
// metric has value 0), so the benchmark keeps the numbers itself.
var paperSaving = map[[2]string]float64{
	{"A", "HP"}: 14, {"A", "ULE"}: 42,
	{"B", "HP"}: 12, {"B", "ULE"}: 39,
}

// headlineDeviation parses `-format json` output holding the headline
// experiment and returns max over scenario × mode of |measured saving −
// paper saving| in percentage points.
func headlineDeviation(out []byte) (float64, error) {
	var rows []struct {
		Experiment string `json:"experiment"`
		Task       struct {
			Params map[string]string `json:"params"`
		} `json:"task"`
		Metrics []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(out, &rows); err != nil {
		return 0, fmt.Errorf("parse headline output: %w", err)
	}
	seen := 0
	dev := 0.0
	for _, r := range rows {
		if r.Experiment != "headline" {
			continue
		}
		paper, ok := paperSaving[[2]string{r.Task.Params["scenario"], r.Task.Params["mode"]}]
		if !ok {
			continue
		}
		for _, m := range r.Metrics {
			if m.Name == "saving" {
				dev = math.Max(dev, math.Abs(m.Value-paper))
				seen++
			}
		}
	}
	if seen != len(paperSaving) {
		return 0, fmt.Errorf("headline output holds %d of the %d scenario×mode savings", seen, len(paperSaving))
	}
	return dev, nil
}

// digest is the short SHA-256 the report prints for an output.
func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

// gate counts outputs checked against reference bytes. A mismatch is a
// failed operation; the first one is described on stderr.
type gate struct {
	attempted, failed int
}

// check compares one output with its reference and reports a match.
func (g *gate) check(what string, got, want []byte) bool {
	g.attempted++
	if bytes.Equal(got, want) {
		return true
	}
	g.failed++
	if g.failed == 1 {
		fmt.Fprintf(os.Stderr, "perfbench: output gate: %s differs from its reference (%d vs %d bytes, first difference at byte %d)\n",
			what, len(got), len(want), firstDiff(got, want))
	}
	return false
}

// fail counts an operation that produced no checkable output.
func (g *gate) fail(what string, err error) {
	g.attempted++
	g.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
