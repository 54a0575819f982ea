package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this build's output")

const goldenFile = "testdata/golden.txt"

// goldenTraceName is the small phased trace the trace-l2 variant
// sweeps. It is written into a scratch directory that becomes the
// working directory, so the relative path — which reaches the output
// through the grid parameters — is the same on every machine.
const goldenTraceName = "golden.trace"

// goldenVariants are the pinned runs: the whole registry at its
// defaults, and the file-backed and hierarchy grids over a generated
// trace with a non-default L2 axis.
var goldenVariants = []struct {
	name string
	args []string
}{
	{"default", []string{"-run", "all", "-format", "json"}},
	{"trace-l2", []string{"-run", "corpus,corpus-miss,phase-epi,hier-epi,shared-l2",
		"-instructions", "50000", "-trace", goldenTraceName, "-l2", "128x8,256x4", "-format", "json"}},
}

// writeGoldenTrace captures the phased_mix generator at 20 000
// instructions, phase ids included, as a v2 trace in dir.
func writeGoldenTrace(t *testing.T, dir string) {
	t.Helper()
	w, err := bench.ByName("phased_mix")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, goldenTraceName))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteV2(f, w.ScaledTo(20_000).Stream(), trace.V2Options{Phases: true}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// sectionDigests splits a -format json result array by experiment and
// hashes each experiment's elements, byte for byte as rendered, in
// output order.
func sectionDigests(t *testing.T, out []byte) map[string]string {
	t.Helper()
	var elems []json.RawMessage
	if err := json.Unmarshal(out, &elems); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	hashes := map[string]*bytes.Buffer{}
	for _, e := range elems {
		var head struct {
			Experiment string `json:"experiment"`
		}
		if err := json.Unmarshal(e, &head); err != nil {
			t.Fatal(err)
		}
		if hashes[head.Experiment] == nil {
			hashes[head.Experiment] = &bytes.Buffer{}
		}
		hashes[head.Experiment].Write(e)
		hashes[head.Experiment].WriteByte('\n')
	}
	digests := make(map[string]string, len(hashes))
	for name, b := range hashes {
		sum := sha256.Sum256(b.Bytes())
		digests[name] = hex.EncodeToString(sum[:])
	}
	return digests
}

// readGolden parses testdata/golden.txt: "variant experiment sha256"
// lines, '#' comments.
func readGolden(t *testing.T) map[string]map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (generate with: go test ./cmd/experiments -run Golden -update)", err)
	}
	defer f.Close()
	golden := map[string]map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		if golden[fields[0]] == nil {
			golden[fields[0]] = map[string]string{}
		}
		golden[fields[0]][fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

func writeGolden(t *testing.T, got map[string]map[string]string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# Per-experiment SHA-256 of `experiments -format json` output, split by\n")
	b.WriteString("# experiment (see TestGoldenDigests). Regenerate only on purpose:\n")
	b.WriteString("#   go test ./cmd/experiments -count=1 -run Golden -update\n")
	b.WriteString("# and name every changed line in CHANGES.md.\n")
	for _, v := range goldenVariants {
		names := make([]string, 0, len(got[v.name]))
		for name := range got[v.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s %s\n", v.name, name, got[v.name][name])
		}
	}
	if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenDigests pins the output bytes across commits: each
// experiment's section of the pinned runs must hash to its checked-in
// digest. The digests are amd64's: Go fuses multiply-adds into FMA on
// arm64, ppc64 and s390x, which moves the last bits of the energy sums.
func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("full-scale runs; skipped in -short mode")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]map[string]string{}
	if !*update {
		golden = readGolden(t)
	}
	got := map[string]map[string]string{}
	for _, v := range goldenVariants {
		dir := t.TempDir()
		writeGoldenTrace(t, dir)
		if err := os.Chdir(dir); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := run(v.args, &out)
		if cerr := os.Chdir(wd); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		got[v.name] = sectionDigests(t, out.Bytes())
	}
	if *update {
		writeGolden(t, got)
		return
	}
	for _, v := range goldenVariants {
		want := golden[v.name]
		if len(want) == 0 {
			t.Errorf("%s: no golden digests checked in", v.name)
		}
		for name, sum := range got[v.name] {
			if want[name] == "" {
				t.Errorf("%s/%s: no golden digest (new experiment? regenerate with -update)", v.name, name)
			} else if want[name] != sum {
				t.Errorf("%s/%s: output digest %s, golden %s", v.name, name, sum[:12], want[name][:12])
			}
		}
		for name := range want {
			if got[v.name][name] == "" {
				t.Errorf("%s/%s: golden experiment missing from the output", v.name, name)
			}
		}
	}
}
