package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
	"repro/internal/lint/multichecker"
)

// mutation is one injected defect: a source-overlay edit of a real package
// that exactly one contract analyzer must flag. The edits are in-memory
// only (loader.LoadWithOverlay); the working tree is never modified.
type mutation struct {
	analyzer *analysis.Analyzer
	// pattern is the go-list pattern of the package to mutate.
	pattern string
	// file is the basename of the file the edit applies to.
	file string
	// describe names the injected defect in the selftest report.
	describe string
	// mutate edits the file's source.
	mutate func(src []byte) ([]byte, error)
}

// appendSource appends decls to the end of the file.
func appendSource(src []byte, decls string) ([]byte, error) {
	out := append([]byte{}, src...)
	out = append(out, '\n')
	out = append(out, decls...)
	return out, nil
}

// mutations returns the per-analyzer injected defects, mirroring the chaos
// engine's -selftest: each one is a realistic regression — a silent
// connectivity flip, a fresh allocation on a hot path — that the matching
// analyzer must catch.
func mutations() []mutation {
	return []mutation{
		{
			analyzer: analyzerByName("epochsync"),
			pattern:  "repro/internal/client",
			file:     "host.go",
			describe: "write to Host.connected without a ConnectivityChanged notification",
			mutate: func(src []byte) ([]byte, error) {
				return appendSource(src,
					"func (h *Host) lintSelftestSilentFlip() { h.connected = !h.connected }\n")
			},
		},
		{
			analyzer: analyzerByName("hotalloc"),
			pattern:  "repro/internal/geo",
			file:     "grid.go",
			describe: "unsized-append growth added to a //hot:-annotated grid function",
			mutate: func(src []byte) ([]byte, error) {
				return appendSource(src, `//hot:selftest-injected allocation
func (g *Grid) lintSelftestHotAlloc(n int) []GridID {
	var out []GridID
	for i := 0; i < n; i++ {
		out = append(out, GridID(i))
	}
	return out
}
`)
			},
		},
	}
}

// analyzerByName resolves a suite analyzer; unknown names panic, which can
// only happen if the mutation table drifts from the suite.
func analyzerByName(name string) *analysis.Analyzer {
	for _, a := range analyzers {
		if a.Name == name {
			return a
		}
	}
	panic("selftest names unknown analyzer " + name)
}

// analyzeWithOverlay loads patterns (with an optional in-memory source
// overlay) and runs the given analyzers.
func analyzeWithOverlay(overlay map[string][]byte, patterns []string, as []*analysis.Analyzer) ([]multichecker.Finding, []multichecker.Suppression, error) {
	pkgs, err := loader.LoadWithOverlay(overlay, patterns...)
	if err != nil {
		return nil, nil, err
	}
	return multichecker.AnalyzeAll(pkgs, as)
}

// runSelftest applies each injected defect and requires the matching
// analyzer to flag it. Exit code 1 means every defect was caught (the
// expected outcome — the caller asserts this run fails, exactly like the
// chaos -selftest); any missed defect is a driver error (exit 2).
func runSelftest(w io.Writer) (int, error) {
	muts := mutations()
	var missed []string
	for _, m := range muts {
		caught, n, err := runOneMutation(m)
		if err != nil {
			return 2, fmt.Errorf("selftest %s: %v", m.analyzer.Name, err)
		}
		if caught {
			if _, err := fmt.Fprintf(w, "selftest %s: caught — %d finding(s) for %s\n", m.analyzer.Name, n, m.describe); err != nil {
				return 2, err
			}
		} else {
			if _, err := fmt.Fprintf(w, "selftest %s: MISSED — %s went undetected\n", m.analyzer.Name, m.describe); err != nil {
				return 2, err
			}
			missed = append(missed, m.analyzer.Name)
		}
	}
	if len(missed) > 0 {
		return 2, fmt.Errorf("injected defects went undetected: %v", missed)
	}
	if _, err := fmt.Fprintf(w, "selftest: all %d injected defects caught; exiting nonzero as proof\n", len(muts)); err != nil {
		return 2, err
	}
	return 1, nil
}

// runOneMutation applies one overlay edit and runs only the target
// analyzer over the mutated package, counting its findings.
func runOneMutation(m mutation) (caught bool, findings int, err error) {
	// Locate the target file through a clean load, so the overlay key is
	// the same absolute path the loader will use.
	pkgs, err := loader.Load(m.pattern)
	if err != nil {
		return false, 0, err
	}
	var target string
	for _, p := range pkgs {
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			if filepath.Base(name) == m.file {
				target = name
			}
		}
	}
	if target == "" {
		return false, 0, fmt.Errorf("file %s not found in %s", m.file, m.pattern)
	}
	src, err := os.ReadFile(target)
	if err != nil {
		return false, 0, err
	}
	mutated, err := m.mutate(src)
	if err != nil {
		return false, 0, err
	}
	found, _, err := analyzeWithOverlay(map[string][]byte{target: mutated}, []string{m.pattern}, []*analysis.Analyzer{m.analyzer})
	if err != nil {
		return false, 0, err
	}
	n := 0
	for _, f := range found {
		if f.Analyzer == m.analyzer.Name {
			n++
		}
	}
	return n > 0, n, nil
}
