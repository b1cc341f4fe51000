package tensorkmc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsResolve: every name in a -run, -bench or -fuzz pattern of
// a go test command in the CI workflow matches at least one Test,
// Benchmark or Fuzz function in the repository. go test runs a pattern
// that matches nothing as a pass, so a renamed or deleted test would
// otherwise drop out of its CI contract without a sound. NONE is the
// conventional run-nothing pattern and is exempt. Every ./path a go
// build, run or test command names must exist too, so a deleted package
// with a stale CI line fails here rather than only in CI.
func TestCIPatternsResolve(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	funcs := testFuncs(t)
	kinds := map[string][]string{
		"run":   {"Test", "Fuzz", "Example"},
		"bench": {"Benchmark"},
		"fuzz":  {"Fuzz"},
	}
	flag := regexp.MustCompile(`\s-(run|bench|fuzz)[= ](?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)
	goCmd := regexp.MustCompile(`\bgo (build|run|test) `)
	pkgPath := regexp.MustCompile(`\s(\./[^\s'"]*)`)
	var matches [][]string
	for _, line := range strings.Split(string(ci), "\n") {
		if strings.Contains(line, "go test ") {
			matches = append(matches, flag.FindAllStringSubmatch(line, -1)...)
		}
		if !goCmd.MatchString(line) {
			continue
		}
		for _, m := range pkgPath.FindAllStringSubmatch(line, -1) {
			if _, err := os.Stat(strings.TrimSuffix(m[1], "/...")); err != nil {
				t.Errorf("CI names %s, which is not in the repository: %v", m[1], err)
			}
		}
	}
	if len(matches) == 0 {
		t.Fatal("found no -run, -bench or -fuzz patterns in the CI workflow")
	}
	for _, m := range matches {
		pattern := m[2] + m[3] + m[4]
		if pattern == "NONE" {
			continue
		}
		for _, name := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(name)
			if err != nil {
				t.Errorf("-%s %q: %v", m[1], pattern, err)
				continue
			}
			if !anyMatch(re, funcs, kinds[m[1]]) {
				t.Errorf("-%s %q: %q matches no %s function in the repository", m[1], pattern, name, strings.Join(kinds[m[1]], "/"))
			}
		}
	}
}

// testFuncs lists the Test, Benchmark, Fuzz and Example function names
// declared in the repository's _test.go files.
func testFuncs(t *testing.T) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func anyMatch(re *regexp.Regexp, funcs, prefixes []string) bool {
	for _, f := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) && re.MatchString(f) {
				return true
			}
		}
	}
	return false
}
