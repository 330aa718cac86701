package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runDemo runs schedlint over the testdata/demo module and returns the
// exit code with the captured streams.
func runDemo(t *testing.T, args ...string) (int, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	t.Chdir(filepath.Join("testdata", "demo"))
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, &out, &errb
}

// TestJSONGolden locks the -json report byte-for-byte against the checked-in
// golden file, so the output schema CI archives cannot drift silently.
// Refresh from the repo root with:
//
//	go build -o /tmp/schedlint ./cmd/schedlint
//	(cd cmd/schedlint/testdata/demo && /tmp/schedlint -json > ../demo.golden.json)
func TestJSONGolden(t *testing.T) {
	code, out, errb := runDemo(t, "-json")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (the demo module has findings); stderr: %s", code, errb)
	}
	want, err := os.ReadFile(filepath.Join("..", "demo.golden.json"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-json output differs from golden:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

// TestJSONSchema checks the shape of every finding object: exactly the five
// documented fields with the right JSON types.
func TestJSONSchema(t *testing.T) {
	code, out, _ := runDemo(t, "-json")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	var findings []map[string]any
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	if len(findings) == 0 {
		t.Fatalf("demo module should produce findings")
	}
	seen := map[string]bool{}
	for i, f := range findings {
		if len(f) != 5 {
			t.Errorf("finding %d has %d fields, want 5: %v", i, len(f), f)
		}
		for _, key := range []string{"file", "check", "message"} {
			if _, ok := f[key].(string); !ok {
				t.Errorf("finding %d: %q should be a string: %v", i, key, f[key])
			}
		}
		for _, key := range []string{"line", "col"} {
			if _, ok := f[key].(float64); !ok {
				t.Errorf("finding %d: %q should be a number: %v", i, key, f[key])
			}
		}
		if check, ok := f["check"].(string); ok {
			seen[check] = true
		}
	}
	// The value-flow analyzers' diagnostics go through the same schema.
	for _, check := range []string{"boundsproof", "intoverflow", "escape"} {
		if !seen[check] {
			t.Errorf("demo module should produce a %s finding", check)
		}
	}
}

// TestOnlyList: -only takes a comma-separated list — the shape the CI gate
// uses to name the value-flow analyzers — and keeps exactly those checks'
// findings.
func TestOnlyList(t *testing.T) {
	code, out, errb := runDemo(t, "-json", "-only", "intoverflow,boundsproof,escape")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errb)
	}
	var findings []map[string]any
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	counts := map[string]int{}
	for _, f := range findings {
		counts[f["check"].(string)] = counts[f["check"].(string)] + 1
	}
	want := map[string]int{"intoverflow": 1, "boundsproof": 1, "escape": 1}
	if len(findings) != 3 || counts["intoverflow"] != 1 || counts["boundsproof"] != 1 || counts["escape"] != 1 {
		t.Errorf("got %d findings with counts %v, want exactly %v", len(findings), counts, want)
	}
}

// TestOutFile checks that -out writes the same report to a file, and that
// -only narrows the report (but not the exit-relevant run) to one check.
func TestOutFile(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "schedlint.json")
	code, out, errb := runDemo(t, "-json", "-out", outPath, "-only", "lintdirective")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errb)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("read -out file: %v", err)
	}
	if !bytes.Equal(data, out.Bytes()) {
		t.Errorf("-out file differs from stdout")
	}
	var findings []map[string]any
	if err := json.Unmarshal(data, &findings); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(findings) != 1 {
		t.Fatalf("want 1 lintdirective finding, got %d: %v", len(findings), findings)
	}
	if findings[0]["check"] != "lintdirective" {
		t.Errorf("check = %v, want lintdirective", findings[0]["check"])
	}
}

// TestOnlyCleanAndUnknown: a check with no findings exits 0 under -only;
// an unknown check name is a usage error (2).
func TestOnlyClean(t *testing.T) {
	code, out, _ := runDemo(t, "-only", "maporder")
	if code != 0 {
		t.Errorf("exit code = %d, want 0 (demo has no maporder findings)", code)
	}
	if out.Len() != 0 {
		t.Errorf("expected empty report, got %q", out)
	}
}

func TestOnlyUnknown(t *testing.T) {
	code, _, errb := runDemo(t, "-only", "nosuchcheck")
	if code != 2 {
		t.Errorf("exit code = %d, want 2; stderr: %s", code, errb)
	}
}

// TestParallelMatchesDefault: -parallel fan-out must not change the report.
func TestParallelMatchesDefault(t *testing.T) {
	code1, out1, _ := runDemo(t, "-json")
	t.Chdir(filepath.Join("..", ".."))
	code4, out4, _ := runDemo(t, "-json", "-parallel", "4")
	if code1 != code4 || !bytes.Equal(out1.Bytes(), out4.Bytes()) {
		t.Errorf("-parallel changed the report (codes %d/%d)", code1, code4)
	}
}

// TestStaleSuppressionFails: a plain run reports a stale //lint:ignore as a
// lintdirective finding next to the module's real findings and exits 1 —
// the audit cannot hide a finding, and a finding cannot hide the audit.
func TestStaleSuppressionFails(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/stale\n\ngo 1.22\n",
		"lib/lib.go": `// Package lib holds one unjoined goroutine and one stale directive.
package lib

// Detach spawns without a join.
func Detach(f func()) {
	go f()
}

// Sum carries a directive whose finding does not exist.
func Sum(xs []int) int {
	s := 0
	//lint:ignore maporder nothing here ranges over a map
	for _, x := range xs {
		s += x
	}
	return s
}
`,
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1; stdout: %s stderr: %s", code, &out, &errb)
	}
	want := []string{
		"lib/lib.go:6:2: golifecycle: go statement without a join",
		"lib/lib.go:12:2: lintdirective: stale suppression: //lint:ignore maporder nothing here ranges over a map suppresses nothing; delete it",
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("got %d report lines, want %d:\n%s", len(lines), len(want), &out)
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], w)
		}
	}
}
