package tensorkmc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tensorkmc/internal/input"
)

// TestDeckKeysDocumented keeps README's "Deck keys" table and the deck
// parser in step: every key the parser's apply switch accepts has a row,
// and every row names a key the parser accepts rather than answering
// `unknown key`.
func TestDeckKeysDocumented(t *testing.T) {
	parsed := parserKeys(t)
	documented := readmeDeckKeys(t)
	for _, k := range parsed {
		if !documented[k] {
			t.Errorf("deck key %q is accepted by internal/input but missing from README's Deck keys table", k)
		}
	}
	for k := range documented {
		_, err := input.Parse(strings.NewReader("cells 5 5 5\nduration 1\n" + k + "\n"))
		if err != nil && strings.Contains(err.Error(), "unknown key") {
			t.Errorf("README documents deck key %q, which the parser refuses: %v", k, err)
		}
	}
}

// parserKeys returns the string cases of the switch in (*Deck).apply.
func parserKeys(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "internal/input/input.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "apply" || fn.Recv == nil {
			continue
		}
		for _, stmt := range fn.Body.List {
			sw, ok := stmt.(*ast.SwitchStmt)
			if !ok {
				continue
			}
			for _, c := range sw.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					lit, ok := e.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					k, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					keys = append(keys, k)
				}
			}
		}
	}
	if len(keys) == 0 {
		t.Fatal("found no case keys in (*Deck).apply")
	}
	sort.Strings(keys)
	return keys
}

// readmeDeckKeys returns the backquoted first cells of the table under
// README's "## Deck keys" heading.
func readmeDeckKeys(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## Deck keys\n")
	if !ok {
		t.Fatal(`README.md has no "## Deck keys" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	keys := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		cell := strings.TrimSpace(cells[1])
		if len(cell) > 2 && cell[0] == '`' && cell[len(cell)-1] == '`' {
			keys[cell[1:len(cell)-1]] = true
		}
	}
	if len(keys) == 0 {
		t.Fatal("README's Deck keys section has no table rows")
	}
	return keys
}
