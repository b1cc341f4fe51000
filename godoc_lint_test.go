// TestExportedSymbolsDocumented is the documentation lint step of the
// performance-critical packages: every exported symbol of the listed
// packages must carry a doc comment —
// these packages' contracts (concurrency safety, bit-identity) live in
// their godoc, so an undocumented export is a broken contract, not a
// style nit. CI runs this with the normal test suite.
package tensorkmc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// lintedPackages are the packages whose exported surface must be fully
// documented. Extend this list as further packages adopt the contract.
var lintedPackages = []string{
	"internal/fusion",
	"internal/evalserve",
	"internal/traj",
	"internal/ctl",
	"internal/telemetry",
}

func TestExportedSymbolsDocumented(t *testing.T) {
	for _, dir := range lintedPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for path, file := range pkg.Files {
				checkFileDocs(t, fset, filepath.Base(path), file)
			}
		}
	}
}

func checkFileDocs(t *testing.T, fset *token.FileSet, name string, file *ast.File) {
	t.Helper()
	undocumented := func(what string, ident *ast.Ident, doc *ast.CommentGroup, pos token.Pos) {
		if !ident.IsExported() || doc.Text() != "" {
			return
		}
		t.Errorf("%s:%d: exported %s %s has no doc comment",
			name, fset.Position(pos).Line, what, ident.Name)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			undocumented("function", d.Name, d.Doc, d.Pos())
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					doc := sp.Doc
					if doc.Text() == "" {
						doc = d.Doc
					}
					undocumented("type", sp.Name, doc, sp.Pos())
					checkFieldDocs(t, fset, name, sp)
				case *ast.ValueSpec:
					doc := sp.Doc
					if doc.Text() == "" {
						doc = d.Doc
					}
					if doc.Text() == "" && sp.Comment.Text() != "" {
						doc = sp.Comment // trailing line comments count
					}
					for _, ident := range sp.Names {
						undocumented("value", ident, doc, ident.Pos())
					}
				}
			}
		}
	}
}

// checkFieldDocs requires docs on exported fields of exported structs:
// the options and stats types are the service's user surface, and an
// unexplained counter is as bad as an unexplained function. One leading
// comment may introduce a contiguous group of fields (the common Go
// idiom for related counters), so a bare field following a documented
// run is accepted.
func checkFieldDocs(t *testing.T, fset *token.FileSet, name string, sp *ast.TypeSpec) {
	t.Helper()
	st, ok := sp.Type.(*ast.StructType)
	if !ok || !sp.Name.IsExported() {
		return
	}
	inDocumentedRun := false
	for _, f := range st.Fields.List {
		documented := f.Doc.Text() != "" || f.Comment.Text() != ""
		if !documented && !inDocumentedRun {
			for _, ident := range f.Names {
				if ident.IsExported() {
					t.Errorf("%s:%d: exported field %s.%s has no doc comment",
						name, fset.Position(ident.Pos()).Line, sp.Name.Name, ident.Name)
				}
			}
		}
		inDocumentedRun = documented || inDocumentedRun
		if f.Doc.Text() != "" {
			inDocumentedRun = true
		}
	}
}
