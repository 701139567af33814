package main

import (
	"bytes"
	"encoding/json"
	"go/scanner"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redsoc/internal/analysis/framework"
)

// TestVetExitCodes pins the contract the CI gate depends on: 0 clean, 1 on
// findings, 2 on internal errors — never conflating a broken invocation with
// a clean tree.
func TestVetExitCodes(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		exit      int
		stdoutHas string
		stderrHas string
	}{
		{
			name: "clean tree exits 0",
			args: []string{"-C", "testdata/clean", "."},
			exit: 0,
		},
		{
			name:      "findings exit 1",
			args:      []string{"-C", "testdata/findings", "."},
			exit:      1,
			stdoutHas: "determinism sink",
			stderrHas: "finding(s)",
		},
		{
			name:      "unknown analyzer is an internal error, exit 2",
			args:      []string{"-run", "nosuch", "-C", "testdata/clean", "."},
			exit:      2,
			stderrHas: "unknown analyzer",
		},
		{
			name:      "unloadable directory is an internal error, exit 2",
			args:      []string{"-C", "testdata/does-not-exist", "."},
			exit:      2,
			stderrHas: "redsoc-vet:",
		},
		{
			name:      "bad flag is an internal error, exit 2",
			args:      []string{"-definitely-not-a-flag"},
			exit:      2,
			stderrHas: "flag provided but not defined",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := vet(tc.args, &stdout, &stderr)
			if got != tc.exit {
				t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.exit, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.stdoutHas) {
				t.Errorf("stdout missing %q:\n%s", tc.stdoutHas, &stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderrHas) {
				t.Errorf("stderr missing %q:\n%s", tc.stderrHas, &stderr)
			}
		})
	}
}

// TestVetSARIF checks the code-scanning output path: findings still exit 1,
// and stdout is a well-formed SARIF log naming the detflow rule.
func TestVetSARIF(t *testing.T) {
	var out bytes.Buffer
	if got := vet([]string{"-sarif", "-C", "testdata/findings", "."}, &out, io.Discard); got != 1 {
		t.Fatalf("exit = %d, want 1\n%s", got, &out)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v\n%s", err, &out)
	}
	if log.Version != "2.1.0" {
		t.Errorf("SARIF version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) == 0 {
		t.Fatalf("SARIF log has no results:\n%s", &out)
	}
	if !strings.Contains(out.String(), "detflow") {
		t.Errorf("SARIF log does not name the detflow rule:\n%s", &out)
	}
}

// TestVetJSON checks the machine-readable diagnostic list.
func TestVetJSON(t *testing.T) {
	var out bytes.Buffer
	if got := vet([]string{"-json", "-C", "testdata/findings", "."}, &out, io.Discard); got != 1 {
		t.Fatalf("exit = %d, want 1\n%s", got, &out)
	}
	var diags []struct{ Analyzer string }
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, &out)
	}
	seen := map[string]bool{}
	for _, d := range diags {
		seen[d.Analyzer] = true
	}
	for _, name := range []string{"detflow", "hotpath"} {
		if !seen[name] {
			t.Errorf("-json output has no %s finding; want the seeded one\n%s", name, &out)
		}
	}
}

// TestAllowNamesAreAnalyzers checks every //lint:allow comment in the
// module's Go files (testdata aside) against the analyzer list. A name that
// is not an analyzer suppresses nothing, so a stale one left behind by a
// rename would silently stop auditing the site it was meant to document.
func TestAllowNamesAreAnalyzers(t *testing.T) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	root := filepath.Join("..", "..")
	count := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (path != root && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, scanner.ScanComments)
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok != token.COMMENT {
				continue
			}
			for _, name := range framework.AllowNames(lit) {
				count++
				if !known[name] {
					t.Errorf("%s: lint:allow names %q, which is not an analyzer (use -list)", fset.Position(pos), name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("found no lint:allow annotations; the walk is not reading the module")
	}
}
