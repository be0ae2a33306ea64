package pilgrim_bench

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docs/DESIGN.md backs its claims with the tests and benchmarks that pin
// them; a cited name that no longer exists backs nothing.

var (
	// designCite matches a test, fuzz target, benchmark or example name
	// as DESIGN.md cites it (a "/sub" suffix names a subtest or arm).
	designCite = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z0-9_][A-Za-z0-9_]*`)
	// testDecl matches the declaration of one in a _test.go file.
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)[A-Za-z0-9_]*)\(`)
)

// TestDesignDocCitesDeclaredTests checks that every Test*, Fuzz*,
// Benchmark* and Example* name docs/DESIGN.md cites is declared in some
// _test.go file of the module.
func TestDesignDocCitesDeclaredTests(t *testing.T) {
	doc, err := os.ReadFile("docs/DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testDecl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, name := range designCite.FindAllString(string(doc), -1) {
		if !declared[name] && !seen[name] {
			seen[name] = true
			t.Errorf("docs/DESIGN.md cites %s, which no _test.go declares", name)
		}
	}
}
