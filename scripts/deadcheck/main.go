// Command deadcheck is the dead-code gate behind `make deadcheck`. It
// type-checks a module, the modules that use it, and their standard
// library dependencies from source, and fails when a name declared under
// the first module's internal/ or cmd/ tree has no use in a non-test
// file of those modules. A command's func main is exempt. The module's
// other packages (caem/, examples/, scripts/) count only as users:
// caem's exported names are the module's public API.
//
// A finding is a package-level name or a method, exported or not, or an
// exported struct field. Each use is resolved to the object it denotes
// (a generic instance to its origin), never matched by name. A function
// naming itself in its own body, or a type named in the receiver of its
// own method, is not a use. Two rules stand in for calls the checker
// cannot see:
//
//   - a method is used when its type implements an interface that has
//     the method: a named or anonymous interface anywhere in the checked
//     code, the standard library's included (error, fmt.Stringer, the
//     anonymous interface errors.Is asserts, ...);
//   - an embedded field is used when a member promoted through it is.
//
// A finding is tagged "tests only" when a _test.go file uses it and "no
// use" otherwise. The allowlist names one finding per line, then its
// reason; an entry that nothing reports fails the gate too.
//
// Usage:
//
//	deadcheck -allow scripts/deadcheck/allowlist.txt . bench
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	allow := flag.String("allow", "", "allowlist file: one finding per line, then its reason")
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	ok, err := run(dirs, *allow, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deadcheck: %v\n", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// listed is the part of `go list -json` output the gate reads.
type listed struct {
	ImportPath, Dir                    string
	Standard                           bool
	GoFiles, TestGoFiles, XTestGoFiles []string
	ImportMap                          map[string]string // the standard library's vendored imports
	Module                             *struct{ Path, Dir string }
}

type checker struct {
	fset   *token.FileSet
	list   map[string]*listed
	pkgs   map[string]*types.Package
	files  map[string][]*ast.File // a user package's non-test files
	ifaces map[string][]*types.Interface
	seen   map[*types.Interface]bool
	// used and testUsed hold the declaration positions of the objects
	// non-test and test files use; self holds the identifiers that are
	// not uses.
	used, testUsed, self map[token.Pos]bool
}

// run checks the modules rooted at dirs, writes the report to w and says
// whether the gate passes. Findings are reported for the internal/ and
// cmd/ trees of dirs[0] only.
func run(dirs []string, allowFile string, w io.Writer) (bool, error) {
	c := &checker{
		fset: token.NewFileSet(), list: map[string]*listed{},
		pkgs: map[string]*types.Package{"unsafe": types.Unsafe}, files: map[string][]*ast.File{},
		ifaces: map[string][]*types.Interface{}, seen: map[*types.Interface]bool{},
		used: map[token.Pos]bool{}, testUsed: map[token.Pos]bool{}, self: map[token.Pos]bool{},
	}
	var module, root string
	var users []string // the packages whose non-test files count as uses
	for i, dir := range dirs {
		pkgs, err := goList(dir)
		if err != nil {
			return false, err
		}
		for _, p := range pkgs {
			if c.list[p.ImportPath] != nil {
				continue
			}
			c.list[p.ImportPath] = p
			if p.Module != nil {
				if i == 0 && module == "" {
					module, root = p.Module.Path, p.Module.Dir
				}
				users = append(users, p.ImportPath)
			}
		}
	}
	if module == "" {
		return false, fmt.Errorf("%s: no module packages", dirs[0])
	}
	for _, path := range users {
		if _, err := c.check(path); err != nil {
			return false, err
		}
	}
	for _, path := range users {
		scope := c.pkgs[path].Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				c.markImplemented(tn.Type().(*types.Named))
			}
		}
		if err := c.checkTests(path); err != nil {
			return false, err
		}
	}

	var found []finding
	for _, path := range users {
		rel := strings.TrimPrefix(path, module+"/")
		if strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/") {
			found = append(found, c.findings(path, rel)...)
		}
	}
	sort.Slice(found, func(i, j int) bool {
		a, b := c.fset.Position(found[i].pos), c.fset.Position(found[j].pos)
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	allowed, err := readAllowlist(allowFile)
	if err != nil {
		return false, err
	}
	ok, n := true, len(allowed)
	for _, f := range found {
		if _, hit := allowed[f.name]; hit {
			delete(allowed, f.name)
			continue
		}
		p := c.fset.Position(f.pos)
		rel, _ := filepath.Rel(root, p.Filename)
		fmt.Fprintf(w, "%s:%d: %s: %s\n", filepath.ToSlash(rel), p.Line, f.name, f.tag)
		ok = false
	}
	stale := make([]string, 0, len(allowed))
	for name := range allowed {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	for _, name := range stale {
		fmt.Fprintf(w, "%s: %s: allowlisted, but nothing reports it\n", allowFile, name)
		ok = false
	}
	if ok {
		fmt.Fprintf(w, "deadcheck passed: every name under %[1]s/internal/ and %[1]s/cmd/ has a use outside tests (%[2]d allowlisted)\n", module, n)
	}
	return ok, nil
}

// goList lists the packages under dir and every package they depend on.
// cgo is off, so the standard library's pure-Go files are the ones
// checked.
func goList(dir string) ([]*listed, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listed)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

func (c *checker) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, len(names))
	for i, name := range names {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files[i] = f
	}
	return files, nil
}

type importer func(string) (*types.Package, error)

func (f importer) Import(path string) (*types.Package, error) { return f(path) }

// usesInfo asks the checker for what recordUses reads.
func usesInfo() *types.Info {
	return &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
}

// check type-checks one package, after its imports, and indexes the
// interfaces it spells. For a user package it also records what its
// files use.
func (c *checker) check(path string) (*types.Package, error) {
	if p := c.pkgs[path]; p != nil {
		return p, nil
	}
	l := c.list[path]
	if l == nil {
		return nil, fmt.Errorf("package %s is not listed", path)
	}
	files, err := c.parse(l.Dir, l.GoFiles)
	if err != nil {
		return nil, err
	}
	info := &types.Info{}
	if !l.Standard {
		info = usesInfo()
	}
	info.Types = map[ast.Expr]types.TypeAndValue{}
	conf := types.Config{Sizes: types.SizesFor("gc", runtime.GOARCH), Importer: importer(func(p string) (*types.Package, error) {
		if vendored, ok := l.ImportMap[p]; ok {
			p = vendored
		}
		return c.check(p)
	})}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = pkg
	for _, tv := range info.Types {
		it, ok := tv.Type.Underlying().(*types.Interface)
		if ok && !c.seen[it] && it.NumMethods() > 0 && it.IsMethodSet() {
			c.seen[it] = true
			for i := 0; i < it.NumMethods(); i++ {
				name := it.Method(i).Name()
				c.ifaces[name] = append(c.ifaces[name], it)
			}
		}
	}
	if !l.Standard {
		c.files[path] = files
		c.markSelf(files, info)
		c.recordUses(info, files, c.used)
	}
	return pkg, nil
}

// checkTests checks a package's _test.go files, in-package and external,
// and records what they use. Type errors are ignored: an external test
// sees the test build of its package beside the plain build of every
// other import, and what it uses resolves all the same.
func (c *checker) checkTests(path string) error {
	l := c.list[path]
	tests, err := c.parse(l.Dir, l.TestGoFiles)
	if err != nil {
		return err
	}
	xtests, err := c.parse(l.Dir, l.XTestGoFiles)
	if err != nil {
		return err
	}
	self := c.pkgs[path]
	imp := importer(func(p string) (*types.Package, error) {
		if p == path {
			return self, nil
		}
		return c.check(p)
	})
	conf := types.Config{Sizes: types.SizesFor("gc", runtime.GOARCH), Importer: imp, Error: func(error) {}}
	if len(tests) > 0 {
		info := usesInfo()
		self, _ = conf.Check(path, c.fset, append(append([]*ast.File(nil), c.files[path]...), tests...), info)
		c.recordUses(info, tests, c.testUsed)
	}
	if len(xtests) > 0 {
		info := usesInfo()
		conf.Check(path+"_test", c.fset, xtests, info)
		c.recordUses(info, xtests, c.testUsed)
	}
	return nil
}

// markSelf notes the identifiers that are not uses: a function naming
// itself in its own body, and a type named in the receiver of its own
// method.
func (c *checker) markSelf(files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if obj := info.Uses[id]; ok && obj != nil {
					_, isType := obj.(*types.TypeName)
					inRecv := fd.Recv != nil && fd.Recv.Pos() <= id.Pos() && id.Pos() < fd.Recv.End()
					if origin(obj).Pos() == fd.Name.Pos() || isType && inRecv {
						c.self[id.Pos()] = true
					}
				}
				return true
			})
		}
	}
}

// recordUses marks the declaration of every object that files use.
func (c *checker) recordUses(info *types.Info, files []*ast.File, set map[token.Pos]bool) {
	in := func(pos token.Pos) bool {
		for _, f := range files {
			if f.FileStart <= pos && pos < f.FileEnd {
				return true
			}
		}
		return false
	}
	for id, obj := range info.Uses {
		if in(id.Pos()) && !c.self[id.Pos()] {
			set[origin(obj).Pos()] = true
		}
	}
	for sel, s := range info.Selections {
		if in(sel.Pos()) {
			markPath(s.Recv(), s.Index(), set)
		}
	}
}

// markPath marks the embedded fields that a selection's path goes
// through.
func markPath(t types.Type, path []int, set map[token.Pos]bool) {
	for _, i := range path[:len(path)-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		f := st.Field(i)
		set[f.Origin().Pos()] = true
		t = f.Type()
	}
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// markImplemented marks every method of t, declared or promoted, that
// an interface with that method makes reachable, and the embedded
// fields a promoted one goes through.
func (c *checker) markImplemented(t *types.Named) {
	if _, ok := t.Underlying().(*types.Interface); ok || t.TypeParams().Len() > 0 {
		return
	}
	ptr := types.NewPointer(t)
	ms := types.NewMethodSet(ptr)
	for i := 0; i < ms.Len(); i++ {
		sel := ms.At(i)
		for _, it := range c.ifaces[sel.Obj().Name()] {
			if types.Implements(ptr, it) {
				c.used[origin(sel.Obj()).Pos()] = true
				markPath(ptr, sel.Index(), c.used)
				break
			}
		}
	}
}

type finding struct {
	pos       token.Pos
	name, tag string
}

// findings lists the names declared in one user package that no
// non-test file uses. rel is the package's path inside its module. A
// command's func main is its entry point, not a finding.
func (c *checker) findings(path, rel string) []finding {
	var out []finding
	add := func(obj types.Object, name string) {
		if c.used[obj.Pos()] {
			return
		}
		tag := "no use"
		if c.testUsed[obj.Pos()] {
			tag = "tests only"
		}
		out = append(out, finding{obj.Pos(), rel + "." + name, tag})
	}
	pkg := c.pkgs[path]
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if _, fn := obj.(*types.Func); fn && name == "main" && pkg.Name() == "main" {
			continue
		}
		add(obj, name)
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			add(named.Method(i), name+"."+named.Method(i).Name())
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					add(f, name+"."+f.Name())
				}
			}
		}
	}
	return out
}

// readAllowlist reads "name reason..." lines; blank lines and lines
// starting with # are skipped.
func readAllowlist(file string) (map[string]string, error) {
	allowed := map[string]string{}
	if file == "" {
		return allowed, nil
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", file, i+1, name)
		}
		allowed[name] = reason
	}
	return allowed, nil
}
