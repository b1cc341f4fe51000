package tensorkmc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports are the exported identifiers of internal/ that no
// non-test file uses and that stay exported all the same, each with the
// reason. The list may only shrink: TestExportsHaveCallers fails on an
// entry that gains a non-test caller or no longer exists.
var testOnlyExports = map[string]string{
	// The dead-rank fixture: other packages' tests install it through
	// the exported core.Config.Chaos and sublattice.Config.Chaos fields.
	// It stays until one chaos package serves both transports.
	"mpi.NewChaos":        "fault fixture: supervise TestChaosMatrix, sublattice TestStalledRankAbortsWithDiagnostic, core TestStalledRankRecoveryFromCheckpoint",
	"mpi.Chaos.StallRank": "fault fixture: supervise TestChaosMatrix, sublattice TestStalledRankAbortsWithDiagnostic, core TestStalledRankRecoveryFromCheckpoint",
	"mpi.Chaos.Revive":    "fault fixture: supervise TestChaosMatrix",

	// Paper baselines that the root bench_test.go ablations time.
	"fusion.NewFeatureOperator":        "Fig. 10 baseline, the unfused CPE feature operator: BenchmarkCPEFeatureOperator",
	"fusion.FeatureOperator.Run":       "Fig. 10 baseline, the unfused CPE feature operator: fusion TestFeatureOperator*",
	"fusion.FeatureOperator.RunMPE":    "Fig. 10 baseline, the MPE-only feature operator: BenchmarkCPEFeatureOperator",
	"fusion.FeatureOperator.ValidHops": "Fig. 10 baseline: fusion TestFeatureOperatorValidHops",
	"feature.ComputeSiteDirect":        "Sec. 3.4 baseline, the descriptor without TABLE: BenchmarkAblationFeatureTable",
	"lattice.NewPosIDIndexer":          "Sec. 3.3 baseline, the POS_ID array direct indexing replaces: BenchmarkAblationIndexing",
	"lattice.PosIDIndexer.Index":       "Sec. 3.3 baseline, the POS_ID lookup: BenchmarkAblationIndexing",
	"lattice.PosIDIndexer.TableBytes":  "Sec. 3.3 baseline, the POS_ID array's size: lattice TestPosIDTableBytes",
}

// TestExportsHaveCallers holds internal/ to one rule: production code is
// what production calls. Every exported func, method, type, const and
// var declared in internal/ must be used by some non-test file of the
// module, outside its own declaration, in the default build or under
// -tags purego. bench/ is frozen, so its test files count as callers
// too. A method that satisfies an interface counts as used, since a call
// through the interface cannot be seen here. Exported struct fields are
// out of scope: JSON and exported signatures bind them. A test-only
// helper belongs in a _test.go file of the package that needs it.
func TestExportsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	declared := map[string]token.Position{}
	used := map[string]bool{}
	for _, tags := range []string{"", "purego"} {
		scanModule(t, tags, declared, used)
	}
	var bad []string
	for key, pos := range declared {
		_, allowed := testOnlyExports[key]
		switch {
		case used[key] && allowed:
			bad = append(bad, fmt.Sprintf("%s %s:%d: has a non-test caller now; delete its testOnlyExports entry", key, pos.Filename, pos.Line))
		case !used[key] && !allowed:
			bad = append(bad, fmt.Sprintf("%s %s:%d: exported, but only tests use it; delete it, move it into a _test.go file or unexport it", key, pos.Filename, pos.Line))
		}
	}
	for key := range testOnlyExports {
		if _, ok := declared[key]; !ok {
			bad = append(bad, fmt.Sprintf("%s: no longer declared; delete its testOnlyExports entry", key))
		}
	}
	sort.Strings(bad)
	for _, msg := range bad {
		t.Error(msg)
	}
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath  string
	Dir         string
	Export      string
	Standard    bool
	GoFiles     []string
	TestGoFiles []string
	TestImports []string
}

// goList lists the module's packages and their dependencies with export
// data built for the given tags, keyed by import path.
func goList(t *testing.T, tags string, patterns ...string) map[string]*listedPackage {
	t.Helper()
	args := []string{"list", "-export", "-deps", "-json", "-tags=" + tags}
	cmd := exec.Command("go", append(args, patterns...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	pkgs := map[string]*listedPackage{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs[p.ImportPath] = p
	}
	return pkgs
}

// modulePatterns list the module's packages for the scan. It names them
// rather than using ./..., which walks bench/out/, where bench's smoke
// test creates and deletes scratch directories while other packages'
// tests run; a directory that vanishes mid-walk fails `go list`.
// TestModulePatternsCoverTopLevel keeps the list complete.
var modulePatterns = []string{".", "./bench", "./cmd/...", "./examples/...", "./internal/...", "./scripts/..."}

// TestModulePatternsCoverTopLevel fails when a top-level directory
// holds Go files that modulePatterns does not list, so the scan cannot
// silently miss a new package tree. It walks only the directories the
// list leaves out, never bench/.
func TestModulePatternsCoverTopLevel(t *testing.T) {
	covered := map[string]bool{}
	for _, p := range modulePatterns {
		covered[strings.TrimSuffix(strings.TrimPrefix(p, "./"), "/...")] = true
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() || covered[e.Name()] || goIgnores(e.Name()) {
			continue
		}
		err := filepath.WalkDir(e.Name(), func(path string, d os.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && goIgnores(d.Name()):
				return filepath.SkipDir
			case !d.IsDir() && strings.HasSuffix(path, ".go"):
				t.Errorf("%s holds Go files (%s) that modulePatterns does not list", e.Name(), path)
				return filepath.SkipAll
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// goIgnores reports whether the go tool's ./... skips a directory name.
func goIgnores(name string) bool {
	return strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata"
}

// scanModule type-checks every non-test package of the module (and
// bench/'s test files) under the given build tags, recording the exported
// identifiers internal/ declares and those some non-test file uses.
func scanModule(t *testing.T, tags string, declared map[string]token.Position, used map[string]bool) {
	t.Helper()
	const module = "tensorkmc"
	pkgs := goList(t, tags, modulePatterns...)
	var missing []string
	for _, imp := range pkgs[module+"/bench"].TestImports {
		if pkgs[imp] == nil {
			missing = append(missing, imp)
		}
	}
	if len(missing) > 0 {
		for path, p := range goList(t, tags, missing...) {
			pkgs[path] = p
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		p := pkgs[path]
		if p == nil || p.Export == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(p.Export)
	}).(types.ImporterFrom)

	// The named interfaces of every package the module imports: a method
	// that satisfies one counts as used. The standard library also asserts
	// a few interfaces inside function bodies (errors.Is, As and Unwrap),
	// which no scope holds.
	var ifaces []*types.Interface
	errType := types.Universe.Lookup("error").Type()
	for _, m := range []struct {
		name       string
		arg, reply types.Type
	}{
		{"Unwrap", nil, errType},
		{"Unwrap", nil, types.NewSlice(errType)},
		{"Is", errType, types.Typ[types.Bool]},
		{"As", types.Universe.Lookup("any").Type(), types.Typ[types.Bool]},
	} {
		var params *types.Tuple
		if m.arg != nil {
			params = types.NewTuple(types.NewParam(token.NoPos, nil, "", m.arg))
		}
		sig := types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewParam(token.NoPos, nil, "", m.reply)), false)
		ifaces = append(ifaces, types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, m.name, sig)}, nil).Complete())
	}
	seen := map[*types.Package]bool{}
	var addIfaces func(scope *types.Scope, imports []*types.Package)
	addIfaces = func(scope *types.Scope, imports []*types.Package) {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, pkg := range imports {
			if !seen[pkg] {
				seen[pkg] = true
				addIfaces(pkg.Scope(), pkg.Imports())
			}
		}
	}
	addIfaces(types.Universe, nil)

	var paths []string
	for path, p := range pkgs {
		if !p.Standard && (path == module || strings.HasPrefix(path, module+"/")) {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	internal := module + "/internal/"
	// methods pairs each exported method with the receiver type to test
	// for interface satisfaction: the one from export data where the
	// package exports it, so that it is identical to the types in other
	// packages' interfaces.
	type method struct {
		fn   *types.Func
		recv types.Type
	}
	var methods []method
	for _, path := range paths {
		p := pkgs[path]
		files := p.GoFiles
		if path == module+"/bench" {
			files = append(append([]string(nil), files...), p.TestGoFiles...)
		}
		var syntax []*ast.File
		for _, name := range files {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			syntax = append(syntax, f)
		}
		info := &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		checked, err := conf.Check(path, fset, syntax, info)
		if err != nil {
			t.Fatalf("type-check %s (tags %q): %v", path, tags, err)
		}
		addIfaces(types.NewScope(nil, token.NoPos, token.NoPos, ""), checked.Imports())
		selfSpans := declSpans(syntax, info, internal)
		for id, obj := range info.Uses {
			key := exportKey(obj, internal)
			if key == "" {
				continue
			}
			if span, ok := selfSpans[key]; ok && span.contains(id.Pos()) {
				continue
			}
			used[key] = true
		}
		if !strings.HasPrefix(path, internal) {
			continue
		}
		pkg, err := imp.ImportFrom(path, p.Dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		addIfaces(pkg.Scope(), nil)
		for _, name := range checked.Scope().Names() {
			obj := checked.Scope().Lookup(name)
			if key := exportKey(obj, internal); key != "" {
				declared[key] = relPosition(fset, obj.Pos())
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			var recv types.Type = named
			if exp, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				recv = exp.Type()
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					methods = append(methods, method{m, recv})
				}
			}
		}
	}
	for _, m := range methods {
		key := exportKey(m.fn, internal)
		if key == "" {
			continue
		}
		declared[key] = relPosition(fset, m.fn.Pos())
		if !used[key] && satisfiesInterface(m.recv, m.fn.Name(), ifaces) {
			used[key] = true
		}
	}
}

// satisfiesInterface reports whether *recv implements some interface
// that has a method of the given name.
func satisfiesInterface(recv types.Type, name string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(recv)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}

// exportKey names an exported package-level object or method declared in
// internal/ as pkg.Name or pkg.Type.Method, and returns "" for anything
// else.
func exportKey(obj types.Object, internal string) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() || !strings.HasPrefix(obj.Pkg().Path(), internal) {
		return ""
	}
	pkg := strings.TrimPrefix(obj.Pkg().Path(), internal)
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return pkg + "." + fn.Name()
		}
		rt := recv.Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		named, ok := rt.(*types.Named)
		if !ok {
			return "" // an interface's own method
		}
		return pkg + "." + named.Obj().Name() + "." + fn.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // a field, a local or a parameter
	}
	return pkg + "." + obj.Name()
}

// span is a declaration's extent in the file set.
type span []struct{ from, to token.Pos }

func (s span) contains(p token.Pos) bool {
	for _, r := range s {
		if r.from <= p && p < r.to {
			return true
		}
	}
	return false
}

// declSpans maps each package-level declaration of the files to its own
// extent, so a recursive call or a method's receiver does not count as a
// use. A type's extent includes the receiver lists of its methods.
func declSpans(files []*ast.File, info *types.Info, internal string) map[string]span {
	spans := map[string]span{}
	add := func(obj types.Object, from, to token.Pos) {
		if key := exportKey(obj, internal); key != "" {
			spans[key] = append(spans[key], struct{ from, to token.Pos }{from, to})
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(info.Defs[d.Name], d.Pos(), d.End())
				if d.Recv == nil {
					continue
				}
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						add(info.Uses[id], d.Recv.Pos(), d.Recv.End())
					}
					return true
				})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						add(info.Defs[sp.Name], sp.Pos(), sp.End())
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							add(info.Defs[id], sp.Pos(), sp.End())
						}
					}
				}
			}
		}
	}
	return spans
}

// relPosition is pos with its file name relative to the module root.
func relPosition(fset *token.FileSet, pos token.Pos) token.Position {
	p := fset.Position(pos)
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, p.Filename); err == nil {
			p.Filename = rel
		}
	}
	return p
}
