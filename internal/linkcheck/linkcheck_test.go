// Package linkcheck holds only a test: every function declared in a
// non-test file under internal/ must be linked into at least one shipped
// binary (the cmd/* tools, the examples and the cmd/iselperf benchmark).
// A function that only tests call belongs in a _test.go file or in a
// test-support package (a package whose name ends in "test"), which no
// non-test file may import.
//
// The check builds every binary with inlining off (-gcflags=all=-l), so a
// function whose body was inlined everywhere still has its own symbol,
// lists their text symbols with `go tool nm`, and compares them with the
// FuncDecls go/parser finds.
package linkcheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// module is the main module's path, the prefix of every symbol and
// import path the check compares.
const module = "iselgen"

// allowed are declarations no binary links that stay anyway: the spec
// AST's interface markers, whose empty bodies exist only to close the
// Stmt and Expr interfaces and are never called.
var allowed = map[string]bool{
	"iselgen/internal/spec.(*LetStmt).stmt":    true,
	"iselgen/internal/spec.(*AssignStmt).stmt": true,
	"iselgen/internal/spec.(*FlagStmt).stmt":   true,
	"iselgen/internal/spec.(*MemStmt).stmt":    true,
	"iselgen/internal/spec.(*IfStmt).stmt":     true,
	"iselgen/internal/spec.(*Ident).expr":      true,
	"iselgen/internal/spec.(*Num).expr":        true,
	"iselgen/internal/spec.(*Unary).expr":      true,
	"iselgen/internal/spec.(*Binary).expr":     true,
	"iselgen/internal/spec.(*Call).expr":       true,
	"iselgen/internal/spec.(*FlagRef).expr":    true,
}

// decl is one function declared in a non-test file.
type decl struct {
	pkg  string // import path
	recv string // receiver type name without type parameters; "" for a function
	ptr  bool   // pointer receiver
	name string
	pos  string // file:line, for the failure message
}

// key is the declaration's symbol name as the linker spells it, without
// type arguments: pkg.F, pkg.T.M or pkg.(*T).M.
func (d decl) key() string {
	switch {
	case d.recv == "":
		return d.pkg + "." + d.name
	case d.ptr:
		return d.pkg + ".(*" + d.recv + ")." + d.name
	default:
		return d.pkg + "." + d.recv + "." + d.name
	}
}

// linkedSet turns text symbols into the set of names a declaration can
// match: type arguments are stripped (pkg.F[go.shape.int] is pkg.F), and
// every dotted prefix after the package path is added too, so a closure
// or wrapper symbol (pkg.F.func1, pkg.(*T).M.gowrap2) counts for the
// function that encloses it.
func linkedSet(syms []string) map[string]bool {
	set := map[string]bool{}
	for _, s := range syms {
		s = stripTypeArgs(s)
		slash := strings.LastIndexByte(s, '/')
		dot := strings.IndexByte(s[slash+1:], '.')
		if dot < 0 {
			continue
		}
		pkgEnd := slash + 1 + dot
		for i := len(s); i > pkgEnd; i = strings.LastIndexByte(s[:i], '.') {
			set[s[:i]] = true
		}
	}
	return set
}

// stripTypeArgs removes every bracketed type-argument list, nested ones
// included.
func stripTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// unlinked reports the declarations that no symbol in linked matches and
// the allowlist does not name, sorted by key. A value-receiver method
// also matches the (*T).M wrapper the compiler generates for it.
func unlinked(decls []decl, linked, allow map[string]bool) []decl {
	var out []decl
	for _, d := range decls {
		k := d.key()
		if linked[k] || allow[k] {
			continue
		}
		if d.recv != "" && !d.ptr {
			p := d
			p.ptr = true
			if linked[p.key()] {
				continue
			}
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

// goFile is one parsed non-test file.
type goFile struct {
	path    string
	pkgPath string // import path of its package
	name    string // package clause name
	ast     *ast.File
}

// isTestSupport reports whether a package name marks test code: a
// test-support package is named like obstest or httptest.
func isTestSupport(name string) bool { return strings.HasSuffix(name, "test") }

// parseFile parses one file below root; src is its content, or nil to
// read it from path.
func parseFile(fset *token.FileSet, root, path string, src any) (goFile, error) {
	f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return goFile{}, err
	}
	rel, err := filepath.Rel(root, filepath.Dir(path))
	if err != nil {
		return goFile{}, err
	}
	return goFile{path: path, pkgPath: module + "/" + filepath.ToSlash(rel), name: f.Name.Name, ast: f}, nil
}

// parseTree parses every non-test .go file below root/dir.
func parseTree(t *testing.T, fset *token.FileSet, root, dir string) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(filepath.Join(root, dir), func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if n := e.Name(); strings.HasPrefix(n, ".") || n == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parseFile(fset, root, path, nil)
		files = append(files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// declsOf lists the functions declared in files, skipping test-support
// packages. Positions are relative to root.
func declsOf(root string, fset *token.FileSet, files []goFile) []decl {
	var out []decl
	for _, f := range files {
		if isTestSupport(f.name) {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Name.Name == "init" && fd.Recv == nil {
				continue // linked as pkg.init.0, pkg.init.1, ...
			}
			rel, _ := filepath.Rel(root, f.path)
			dc := decl{
				pkg:  f.pkgPath,
				name: fd.Name.Name,
				pos:  fmt.Sprintf("%s:%d", rel, fset.Position(fd.Pos()).Line),
			}
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				dc.recv, dc.ptr = recvName(fd.Recv.List[0].Type)
			}
			out = append(out, dc)
		}
	}
	return out
}

// recvName returns a receiver's base type name and whether it is a
// pointer, dropping type parameters.
func recvName(x ast.Expr) (string, bool) {
	ptr := false
	if s, ok := x.(*ast.StarExpr); ok {
		ptr, x = true, s.X
	}
	switch e := x.(type) {
	case *ast.IndexExpr:
		x = e.X
	case *ast.IndexListExpr:
		x = e.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name, ptr
	}
	return "", ptr
}

// testSupportImports reports each non-test file outside a test-support
// package that imports one, as "file imports path".
func testSupportImports(root string, files []goFile) []string {
	support := map[string]bool{}
	for _, f := range files {
		if isTestSupport(f.name) {
			support[f.pkgPath] = true
		}
	}
	var out []string
	for _, f := range files {
		if isTestSupport(f.name) {
			continue
		}
		for _, im := range f.ast.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			if support[p] {
				rel, _ := filepath.Rel(root, f.path)
				out = append(out, rel+" imports "+p)
			}
		}
	}
	sort.Strings(out)
	return out
}

// binaries lists the shipped main packages as directories relative to
// root: every cmd/* and examples/* directory that holds Go files.
func binaries(t *testing.T, root string) []string {
	t.Helper()
	var dirs []string
	for _, parent := range []string{"cmd", "examples"} {
		es, err := os.ReadDir(filepath.Join(root, parent))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range es {
			if !e.IsDir() {
				continue
			}
			gos, _ := filepath.Glob(filepath.Join(root, parent, e.Name(), "*.go"))
			if len(gos) > 0 {
				dirs = append(dirs, filepath.Join(parent, e.Name()))
			}
		}
	}
	return dirs
}

// buildAndList builds each binary with inlining off into out and returns
// the text symbols of all of them. A directory with its own go.mod (the
// benchmark) is built from inside it, so it links the checkout's
// packages through its replace directive exactly as it ships.
func buildAndList(t *testing.T, root, out string, dirs []string) []string {
	t.Helper()
	var syms []string
	for _, dir := range dirs {
		bin := filepath.Join(out, filepath.Base(dir))
		cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, "./"+filepath.ToSlash(dir))
		cmd.Dir = root
		if _, err := os.Stat(filepath.Join(root, dir, "go.mod")); err == nil {
			cmd = exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, ".")
			cmd.Dir = filepath.Join(root, dir)
		}
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", dir, err, b)
		}
		b, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("nm %s: %v", dir, err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			// Each line is "addr type name"; T and t mark text symbols.
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			if name := strings.Join(f[2:], " "); strings.HasPrefix(name, module+"/") {
				syms = append(syms, name)
			}
		}
	}
	return syms
}

// TestEveryFunctionIsLinked is the guard. It needs the go tool, and takes
// a few seconds with a warm build cache.
func TestEveryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var all []goFile
	for _, dir := range []string{"internal", "cmd", "examples"} {
		all = append(all, parseTree(t, fset, root, dir)...)
	}
	for _, bad := range testSupportImports(root, all) {
		t.Errorf("non-test file imports a test-support package: %s", bad)
	}

	var internal []goFile
	for _, f := range all {
		if strings.HasPrefix(f.pkgPath, module+"/internal/") {
			internal = append(internal, f)
		}
	}
	decls := declsOf(root, fset, internal)
	linked := linkedSet(buildAndList(t, root, t.TempDir(), binaries(t, root)))
	for _, d := range unlinked(decls, linked, allowed) {
		t.Errorf("%s: %s is linked by no binary; delete it or move it into test code", d.pos, d.key())
	}
	// A stale allowlist entry is an error too, so the list cannot grow
	// past what it has to hold.
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key()] = true
	}
	for k := range allowed {
		if !declared[k] {
			t.Errorf("allowlisted %s is not declared", k)
		}
	}
}

// TestMatching runs the guard's matching on a synthetic tree and symbol
// list, without building anything.
func TestMatching(t *testing.T) {
	const root = "/src"
	const x = module + "/internal/x"
	srcs := []struct{ path, src string }{
		{"internal/x/x.go", `package x

type T struct{}

type Set[E comparable] struct{}

func (T) Value()      {}
func (T) ViaWrapper() {}
func (*T) Ptr()       {}
func (*T) marker()    {}

func Map[E any](e E) E    { return e }
func (s *Set[E]) Add(e E) {}
func Outer() func()       { return func() {} }
func Planted()            {}
func init()               {}
`},
		{"internal/x/xtest/xtest.go", "package xtest\n\nfunc Helper() {}\n"},
		{"internal/y/y.go", "package y\n\nimport _ \"iselgen/internal/x/xtest\"\n"},
	}
	fset := token.NewFileSet()
	var files []goFile
	for _, s := range srcs {
		f, err := parseFile(fset, root, filepath.Join(root, s.path), s.src)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	syms := []string{
		x + ".T.Value",                     // value receiver
		x + ".(*T).ViaWrapper",             // value receiver, only its pointer wrapper linked
		x + ".(*T).Ptr",                    // pointer receiver
		x + ".Map[go.shape.int]",           // generic function
		x + ".(*Set[go.shape.string]).Add", // generic type's method
		x + ".Outer.func1",                 // only the closure is linked
		module + "/internal/xy.Planted",    // another package's function of the same name
	}
	allow := map[string]bool{x + ".(*T).marker": true}

	got := unlinked(declsOf(root, fset, files), linkedSet(syms), allow)
	if len(got) != 1 || got[0].key() != x+".Planted" || got[0].pos != "internal/x/x.go:15" {
		t.Errorf("unlinked = %+v, want only %s.Planted at internal/x/x.go:15", got, x)
	}

	imports := testSupportImports(root, files)
	want := "internal/y/y.go imports " + x + "/xtest"
	if len(imports) != 1 || imports[0] != want {
		t.Errorf("test-support imports = %q, want [%q]", imports, want)
	}
}
