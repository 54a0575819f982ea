package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var e2e, layer, wls []string
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, m.Name)
	}
	for _, w := range bj.Workloads {
		wls = append(wls, w.Name)
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness reports %v", e2e, endToEnd)
	}
	if fmt.Sprint(layer) != fmt.Sprint(perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, harness reports %v", layer, perLayer)
	}
	if fmt.Sprint(wls) != fmt.Sprint(workloads) {
		t.Errorf("BENCHMARK.json workloads %v", wls)
	}
}

// programs builds experiments and edcached once for the package's tests.
var programs = struct {
	once sync.Once
	dir  string
	err  error
}{}

func buildPrograms(t *testing.T) string {
	t.Helper()
	programs.once.Do(func() {
		programs.dir, programs.err = os.MkdirTemp("", "perfbench-bin")
		if programs.err != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", programs.dir+string(os.PathSeparator), "./cmd/experiments", "./cmd/edcached")
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			programs.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if programs.err != nil {
		t.Fatal(programs.err)
	}
	return programs.dir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if programs.dir != "" {
		os.RemoveAll(programs.dir)
	}
	os.Exit(code)
}

func tinyConfig(t *testing.T, bin, workload string, traced bool) config {
	return config{
		workload: workload, seed: 3, seconds: time.Second, traced: traced,
		bin: bin, work: t.TempDir(), tiny: true, workers: 2,
	}
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return r
}

// TestTinyWorkloads runs every workload, untraced and traced, at tiny
// sizes, and checks that each named metric is printed with its unit and
// sample count and lands in the JSON line.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	bin := buildPrograms(t)
	bj := loadBenchmarkJSON(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bj.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		units[true][m.Name] = m.Unit
	}
	// Printed on every run, or on service runs only; not in the JSON.
	printed := map[string][]string{
		"sweep":        {"failed_share"},
		"trace":        {"failed_share"},
		"service-cold": {"failed_share", "cold_job_p50_ms", "non2xx"},
		"service-warm": {"failed_share", "warm_job_p50_ms", "warm_job_tail_ms", "warm_jobs_per_s", "non2xx"},
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl, traced), func(t *testing.T) {
				var out bytes.Buffer
				ok, err := run(context.Background(), tinyConfig(t, bin, wl, traced), &out)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("gate failed:\n%s", out.String())
				}
				r := lastLine(t, out.String())
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("result %+v", r)
				}
				if len(r.Metrics) != len(units[traced]) {
					t.Errorf("JSON holds %d metrics, want %d", len(r.Metrics), len(units[traced]))
				}
				names := append([]string(nil), printed[wl]...)
				if traced {
					names = []string{"failed_share"}
				}
				for name, unit := range units[traced] {
					m, ok := r.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("JSON metric %s = %+v, want unit %s", name, m, unit)
					}
					names = append(names, name)
				}
				for _, name := range names {
					if !reportLine(out.String(), name) {
						t.Errorf("no report line for %s:\n%s", name, out.String())
					}
				}
			})
		}
	}
}

// reportLine reports whether the report prints name with a value, a
// unit and a sample count.
func reportLine(out, name string) bool {
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == name && strings.HasPrefix(f[3], "n=") {
			return true
		}
	}
	return false
}

// flippingBin returns a bin directory whose experiments flips the first
// output byte of every run except the -workers 1 reference and -list,
// next to the real edcached.
func flippingBin(t *testing.T, real string) string {
	dir := t.TempDir()
	script := fmt.Sprintf(`#!/bin/sh
case " $* " in
  *" -workers 1 "*|*" -list "*) exec %q "$@" ;;
esac
%q "$@" | sed '1s/^./X/'
`, filepath.Join(real, "experiments"), filepath.Join(real, "experiments"))
	if err := os.WriteFile(filepath.Join(dir, "experiments"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(real, "edcached"), filepath.Join(dir, "edcached")); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestGateTripsOnFlippedByte checks that one flipped output byte fails
// the run: in a timed CLI pass (sweep) and in the solo reference a
// service result is compared with (service-cold, service-warm).
func TestGateTripsOnFlippedByte(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	bin := flippingBin(t, buildPrograms(t))
	for _, wl := range []string{"sweep", "service-cold", "service-warm"} {
		t.Run(wl, func(t *testing.T) {
			var out bytes.Buffer
			ok, err := run(context.Background(), tinyConfig(t, bin, wl, false), &out)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatalf("gate passed a flipped byte:\n%s", out.String())
			}
			r := lastLine(t, out.String())
			if r.Correct || r.Failed == 0 || r.Failed > r.Attempted {
				t.Errorf("result %+v, want failures counted", r)
			}
		})
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v (%v), want 90 at p90", v, pct, ok)
	}
	if v, _, ok := tail(xs[:10]); ok || v != 10 {
		t.Errorf("tail of 10 samples = %v (%v), want the max and !ok", v, ok)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cache.batch", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "cache.batch", Start: 20, End: 40},  // overlaps 2
		{ID: 4, Parent: 1, Name: "cache.batch", Start: 90, End: 120}, // clipped at 100
		{ID: 5, Name: "store.put", Start: 0, End: -1},                // open: ignored
	}
	self := selfTimes(spans)
	if self["core"] != 60 {
		t.Errorf("core self = %v, want 60 (100 minus 30+10 covered)", self["core"])
	}
	if self["cache"] != 70 {
		t.Errorf("cache self = %v, want 70 (the leaf spans' full durations)", self["cache"])
	}
	if _, ok := self["store"]; ok {
		t.Errorf("open span counted: %v", self)
	}
}

func TestOverhead(t *testing.T) {
	v := overhead{traced: 110, before: 100, after: 90}
	if v.value() != 15 || v.spread() != 10 {
		t.Errorf("overhead %v, spread %v; want 15 and 10", v.value(), v.spread())
	}
}

func TestHeadlineDeviation(t *testing.T) {
	row := func(s, m string, v float64) string {
		return fmt.Sprintf(`{"experiment":"headline","task":{"params":{"scenario":%q,"mode":%q}},"metrics":[{"name":"saving","value":%v},{"name":"paper_saving","value":0,"text":"x"}]}`, s, m, v)
	}
	out := "[" + strings.Join([]string{row("A", "HP", 14.5), row("A", "ULE", 41), row("B", "HP", 14.7), row("B", "ULE", 39.2)}, ",") + "]"
	dev, err := headlineDeviation([]byte(out))
	if err != nil || dev < 2.6999 || dev > 2.7001 {
		t.Errorf("deviation = %v, %v; want 2.7 (B-HP)", dev, err)
	}
	if _, err := headlineDeviation([]byte("[" + row("A", "HP", 14) + "]")); err == nil {
		t.Error("a partial headline was accepted")
	}
}
