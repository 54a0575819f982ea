package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"edcache/internal/bench"
	"edcache/internal/sim"
	"edcache/internal/trace"
)

// deriveSeed maps the workload seed, a label and an index to an
// independent non-negative seed, so every generated input is a pure
// function of -seed.
func deriveSeed(seed int64, label string, i int) int64 {
	return sim.SubSeed(seed, "perfbench/"+label, i) & (1<<53 - 1)
}

// traceFile is one generated trace input of the trace workload.
type traceFile struct {
	path   string
	base   string // registered workload whose generator wrote it
	insts  int
	phased bool
	size   int64
}

// traceSet is the trace workload's input: the files plus the -map-threshold
// that splits them into decoded slabs and mapped arenas.
type traceSet struct {
	files     []traceFile
	threshold int64 // 0 = the program's default (trace.DefaultMapThreshold)
}

func (s traceSet) paths() []string {
	p := make([]string, len(s.files))
	for i, f := range s.files {
		p[i] = f.path
	}
	return p
}

// cliArgs are the experiments flags that add the files as grid points.
func (s traceSet) cliArgs() []string {
	args := []string{"-trace", strings.Join(s.paths(), ",")}
	if s.threshold > 0 {
		args = append(args, "-map-threshold", strconv.FormatInt(s.threshold, 10))
	}
	return args
}

func (s traceSet) bytes() int64 {
	var n int64
	for _, f := range s.files {
		n += f.size
	}
	return n
}

// writeTraceSet generates the trace workload's files from the seed:
// two slab-sized files (one phase-annotated, so phase-epi replays it)
// below the 64 MiB map threshold and one above it, so the program
// mmaps it. Each file is a registered generator family with a
// seed-derived generator seed: same shape on every seed, different
// instruction streams. tiny shrinks the files and moves the threshold
// between them instead.
func writeTraceSet(dir string, seed int64, tiny bool) (traceSet, error) {
	specs := []struct {
		base  string
		insts int
	}{
		{"gsm_c", 2_000_000},
		{"phased_mix", 2_000_000},
		{"mpeg2_c", 6_000_000},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return traceSet{}, err
	}
	var set traceSet
	for i, sp := range specs {
		w, err := bench.ByName(sp.base)
		if err != nil {
			return traceSet{}, err
		}
		insts := sp.insts
		if tiny {
			insts /= 100
		}
		w = w.ScaledTo(insts)
		w.Seed = deriveSeed(seed, "trace/"+sp.base, i)
		f := traceFile{
			path:   filepath.Join(dir, fmt.Sprintf("%d-%s.trace", i, sp.base)),
			base:   sp.base,
			insts:  insts,
			phased: w.HasPhases(),
		}
		if f.size, err = writeTrace(f.path, w); err != nil {
			return traceSet{}, err
		}
		set.files = append(set.files, f)
	}
	big := set.files[len(set.files)-1].size
	if tiny {
		set.threshold = big
	} else if big < trace.DefaultMapThreshold {
		return traceSet{}, fmt.Errorf("mapped input is %d bytes, below the %d-byte map threshold", big, trace.DefaultMapThreshold)
	}
	limit := int64(trace.DefaultMapThreshold)
	if set.threshold > 0 {
		limit = set.threshold
	}
	for _, f := range set.files[:len(set.files)-1] {
		if f.size >= limit {
			return traceSet{}, fmt.Errorf("slab input %s is %d bytes, not below the %d-byte map threshold", f.path, f.size, limit)
		}
	}
	return set, nil
}

// writeTrace writes w as a checksummed, indexed v2 container — the
// container tracegen writes by default — and returns its size.
func writeTrace(path string, w bench.Workload) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	_, err = trace.WriteV2(bw, w.Stream(), trace.V2Options{Phases: w.HasPhases(), Checksums: true, Index: true})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("write %s: %w", path, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
