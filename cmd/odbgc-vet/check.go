package main

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"odbgc/internal/analysis"
)

// runCheck implements `odbgc-vet check [-stale] [packages]`: it runs go
// vet over the packages with this binary as the vet tool, forwarding the
// diagnostics. With -stale it then reports every //odbgc:*-ok
// suppression in an analyzed file that no diagnostic probe matched. Any
// diagnostic or stale suppression is a finding; failing to run go vet
// at all is an error.
func runCheck(args []string, stdout, stderr io.Writer) (bool, error) {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	stale := fs.Bool("stale", false, "report suppressions that suppress nothing")
	if err := fs.Parse(args); err != nil {
		return false, fmt.Errorf("usage: odbgc-vet check [-stale] [packages]: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return false, fmt.Errorf("check: locating own binary: %w", err)
	}
	vet := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, fs.Args()...)...)
	vet.Stdout, vet.Stderr = stdout, stderr
	usedDir := ""
	if *stale {
		// A fresh salt changes the tool's build ID (printVersion), so no
		// unit is served from the vet cache: a cached unit probes nothing.
		salt := make([]byte, 16)
		if _, err := rand.Read(salt); err != nil {
			return false, fmt.Errorf("check: %w", err)
		}
		if usedDir, err = os.MkdirTemp("", "odbgc-vet-used-"); err != nil {
			return false, fmt.Errorf("check: %w", err)
		}
		defer os.RemoveAll(usedDir)
		vet.Env = append(os.Environ(), "ODBGCVET_SALT="+hex.EncodeToString(salt), "ODBGCVET_USED_DIR="+usedDir)
	}
	findings := false
	if err := vet.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			return false, fmt.Errorf("check: running go vet: %w", err)
		}
		findings = true // go vet has printed the diagnostics
	}
	if !*stale {
		return findings, nil
	}
	lines, err := staleSuppressions(usedDir)
	if err != nil {
		return false, fmt.Errorf("check: %w", err)
	}
	for _, l := range lines {
		fmt.Fprintln(stderr, l)
	}
	return findings || len(lines) > 0, nil
}

// staleSuppressions reads the records usedRecorder.flush left in dir
// and returns, in file and line order, one
// "file:line: stale suppression //odbgc:<marker>" line for every
// suppression in a covered file that no unit matched. Files no unit
// covered are not judged.
func staleSuppressions(dir string) ([]string, error) {
	records, err := filepath.Glob(filepath.Join(dir, "*.used"))
	if err != nil {
		return nil, err
	}
	covered, used := map[string]bool{}, map[string]bool{}
	for _, name := range records {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if file, ok := strings.CutPrefix(line, "covered "); ok {
				covered[file] = true
			} else if key, ok := strings.CutPrefix(line, "used "); ok {
				used[key] = true
			}
		}
	}
	files := make([]string, 0, len(covered))
	for file := range covered {
		files = append(files, file)
	}
	sort.Strings(files)
	var stale []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		sup := analysis.Suppressions(fset, f)
		lines := make([]int, 0, len(sup))
		for line := range sup {
			lines = append(lines, line)
		}
		sort.Ints(lines)
		for _, line := range lines {
			if !used[usedKey(file, line, sup[line])] {
				stale = append(stale, fmt.Sprintf("%s:%d: stale suppression //odbgc:%s", file, line, sup[line]))
			}
		}
	}
	return stale, nil
}
