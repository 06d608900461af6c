package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestUsageError(t *testing.T) {
	for _, args := range [][]string{nil, {"a.cfg", "b.cfg"}, {"notacfg"}, {"check", "-sarif", "x"}} {
		var stdout, stderr bytes.Buffer
		findings, err := run(args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "usage:") {
			t.Errorf("run(%v): err = %v, want usage error", args, err)
		}
		if args != nil && args[0] == "check" && !strings.Contains(err.Error(), "-sarif") {
			t.Errorf("run(%v): err = %v, want it to name the unknown flag", args, err)
		}
		if findings {
			t.Errorf("run(%v): reported findings on a usage error", args)
		}
	}
}

func TestFlagsMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	findings, err := run([]string{"-flags"}, &stdout, &stderr)
	if err != nil || findings {
		t.Fatalf("-flags: findings=%v err=%v", findings, err)
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("-flags printed %q, want []", got)
	}
}

func TestVersionMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	findings, err := run([]string{"-V=full"}, &stdout, &stderr)
	if err != nil || findings {
		t.Fatalf("-V=full: findings=%v err=%v", findings, err)
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "odbgc-vet version devel") || !strings.Contains(out, "buildID=") {
		t.Errorf("-V=full printed %q, want a cmd/go-compatible version line", out)
	}
}

// Driver errors must come back as errors naming the offending cfg file
// or package, never via log.Fatal (which would bypass main's exit-code
// split between findings and failures).
func TestBadConfigNamed(t *testing.T) {
	dir := t.TempDir()

	missing := filepath.Join(dir, "missing.cfg")
	var stdout, stderr bytes.Buffer
	if _, err := run([]string{missing}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "missing.cfg") {
		t.Errorf("missing cfg: err = %v, want error naming the file", err)
	}

	garbage := filepath.Join(dir, "garbage.cfg")
	if err := os.WriteFile(garbage, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run([]string{garbage}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "garbage.cfg") {
		t.Errorf("garbage cfg: err = %v, want error naming the file", err)
	}

	empty := filepath.Join(dir, "empty.cfg")
	if err := os.WriteFile(empty, []byte(`{"ImportPath":"example.com/p"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run([]string{empty}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "example.com/p") {
		t.Errorf("no-files cfg: err = %v, want error naming the package", err)
	}
}

// VetxOnly units must succeed without analyzing anything, writing the
// facts file the go command asked for.
func TestVetxOnly(t *testing.T) {
	dir := t.TempDir()
	vetx := filepath.Join(dir, "out.vetx")
	cfg := filepath.Join(dir, "unit.cfg")
	body := `{"ImportPath":"example.com/p","GoFiles":["` + filepath.ToSlash(filepath.Join(dir, "absent.go")) + `"],"VetxOnly":true,"VetxOutput":"` + filepath.ToSlash(vetx) + `"}`
	if err := os.WriteFile(cfg, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	findings, err := run([]string{cfg}, &stdout, &stderr)
	if err != nil || findings {
		t.Fatalf("VetxOnly unit: findings=%v err=%v", findings, err)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("facts file not written: %v", err)
	}
}

// The stale sweep judges every //odbgc:*-ok suppression in a file some
// full unit covered against the suppressions the units matched. The
// records are written by the same usedRecorder the vet units use.
func TestStaleSuppressions(t *testing.T) {
	const suppressed = `package p

func f() {
	_ = 1 //odbgc:alloc-ok reason
}
`
	const annotated = `package p

//odbgc:hotpath
//odbgc:barrier
func f() {}
`
	for _, tc := range []struct {
		name     string
		src      string
		used     bool // the unit matched the suppression on line 4
		vetxOnly bool // the unit ran only the fact analyzers
		covered  bool // the unit lists the file among its sources
		want     bool // one stale finding for line 4
	}{
		{name: "used", src: suppressed, used: true, covered: true},
		{name: "unused in covered file", src: suppressed, covered: true, want: true},
		{name: "unused in uncovered file", src: suppressed},
		{name: "unused in fact-only unit", src: suppressed, vetxOnly: true, covered: true},
		{name: "annotations are not suppressions", src: annotated, covered: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			file := filepath.Join(dir, "p.go")
			if err := os.WriteFile(file, []byte(tc.src), 0o644); err != nil {
				t.Fatal(err)
			}
			other := filepath.Join(dir, "other.go")
			if err := os.WriteFile(other, []byte("package p\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := &vetConfig{ImportPath: "example.com/p", GoFiles: []string{other}, VetxOnly: tc.vetxOnly}
			if tc.covered {
				cfg.GoFiles = append(cfg.GoFiles, file)
			}
			r := &usedRecorder{dir: dir, seen: map[string]bool{}}
			if tc.used {
				r.record(file, 4, "alloc-ok")
			}
			if err := r.flush(cfg); err != nil {
				t.Fatal(err)
			}
			got, err := staleSuppressions(dir)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			if tc.want {
				want = []string{file + ":4: stale suppression //odbgc:alloc-ok"}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("stale = %q, want %q", got, want)
			}
		})
	}
}
