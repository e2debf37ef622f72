package repro_test

// The layer rules. TestLayerRules parses and type-checks the whole
// module from source — test files and the bench/ module included, the
// standard library read from its export data — and checks the design's
// rules over resolved objects: who may start a goroutine, who may call
// a method, which imports only tests may make, which exported names
// anything calls. A rule names objects, not text, so a comment, a string
// or a namesake in another package neither trips it nor hides from it.
//
// The surface measures the roadmap's baselines quote print under -v:
//
//	go test -run 'TestLayerRules$' -v .

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

const modulePath = "repro"

// A module is every package under one directory, parsed and
// type-checked: a package with its in-package test files, and an
// external test package beside it.
type module struct {
	fset   *token.FileSet
	pkgs   []*pkg
	byPath map[string]*pkg // import path → package (external tests: "…_test")
	files  []*file
	byName map[string]*file
	uses   []use
	gos    []use                     // go statements; obj is nil
	lits   []use                     // composite literals of a named type; obj is the type's name
	sets   []use                     // assignments and struct-literal fields; obj is the variable or field written
	ifaces map[*types.Interface]bool // interfaces non-test code names or writes
	std    types.Importer
}

type pkg struct {
	path  string // import path
	dir   string // directory relative to the module root, "." for the root
	files []*file
	types *types.Package
	info  *types.Info
}

type file struct {
	name string // path relative to the module root
	test bool   // a _test.go file
	src  []byte
	ast  *ast.File
	pkg  *pkg
}

// A use is one identifier that resolves to a module or standard-library
// object, with the top-level function it sits in (nil outside one).
type use struct {
	obj types.Object
	f   *file
	fn  *ast.FuncDecl
	pos token.Pos
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdExports maps a standard-library import path to its export data
// file. importer.Default runs one go command per package it imports,
// most of a load's time; stdImporter runs one for all of them.
var stdExports = map[string]string{}

// stdImporter returns an importer of the standard library's export data
// that knows every package in paths and their dependencies.
func stdImporter(paths []string) (types.Importer, error) {
	var missing []string
	for _, p := range paths {
		if _, ok := stdExports[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		args := append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}, missing...)
		out, err := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...).Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export: %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if p, f, ok := strings.Cut(line, "="); ok {
				stdExports[p] = f
			}
		}
	}
	return importer.ForCompiler(token.NewFileSet(), "gc", func(p string) (io.ReadCloser, error) {
		f, ok := stdExports[p]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", p)
		}
		return os.Open(f)
	}), nil
}

// loadModule parses every buildable Go file under fsys (skipping
// testdata and dot- or underscore-named directories, as the go command
// does) and type-checks each package.
func loadModule(fsys fs.FS) (*module, error) {
	m := &module{fset: token.NewFileSet(), byPath: map[string]*pkg{},
		byName: map[string]*file{}, ifaces: map[*types.Interface]bool{}}
	ctxt := build.Default
	ctxt.JoinPath = path.Join
	ctxt.OpenFile = func(name string) (io.ReadCloser, error) { return fsys.Open(name) }
	err := fs.WalkDir(fsys, ".", func(name string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if name != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return fs.SkipDir
			}
			return nil
		}
		dir, base := path.Split(name)
		dir = path.Clean(dir)
		if !strings.HasSuffix(base, ".go") {
			return nil
		}
		if ok, err := ctxt.MatchFile(dir, base); err != nil || !ok {
			return err
		}
		src, err := fs.ReadFile(fsys, name)
		if err != nil {
			return err
		}
		af, err := parser.ParseFile(m.fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ipath := modulePath
		if dir != "." {
			ipath += "/" + dir
		}
		f := &file{name: name, test: strings.HasSuffix(base, "_test.go"), src: src, ast: af}
		if f.test && strings.HasSuffix(af.Name.Name, "_test") {
			ipath += "_test"
		}
		p := m.byPath[ipath]
		if p == nil {
			p = &pkg{path: ipath, dir: dir}
			m.byPath[ipath] = p
			m.pkgs = append(m.pkgs, p)
		}
		f.pkg = p
		p.files = append(p.files, f)
		m.files = append(m.files, f)
		m.byName[name] = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	var std []string
	for _, q := range stdCalled {
		std = append(std, q[:strings.LastIndex(q, ".")])
	}
	for _, f := range m.files {
		for _, is := range f.ast.Imports {
			if p, _ := strconv.Unquote(is.Path.Value); m.byPath[p] == nil && !slices.Contains(std, p) {
				std = append(std, p)
			}
		}
	}
	if m.std, err = stdImporter(std); err != nil {
		return nil, err
	}
	var check func(p *pkg) (*types.Package, error)
	imp := importerFunc(func(ipath string) (*types.Package, error) {
		if p := m.byPath[ipath]; p != nil {
			return check(p)
		}
		return m.std.Import(ipath)
	})
	check = func(p *pkg) (*types.Package, error) {
		if p.info != nil {
			if p.types == nil {
				return nil, fmt.Errorf("import cycle through %s", p.path)
			}
			return p.types, nil
		}
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		asts := make([]*ast.File, len(p.files))
		for i, f := range p.files {
			asts[i] = f.ast
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.path, m.fset, asts, p.info)
		if err != nil {
			return nil, err
		}
		p.types = tp
		return tp, nil
	}
	for _, p := range m.pkgs {
		if _, err := check(p); err != nil {
			return nil, err
		}
	}
	for _, f := range m.files {
		m.collect(f)
	}
	return m, nil
}

// origin maps a member of an instantiated generic type to the member
// its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// collect records f's uses, assignments, go statements, literals and
// the interfaces its non-test code names or writes.
func (m *module) collect(f *file) {
	info := f.pkg.info
	for _, decl := range f.ast.Decls {
		fn, _ := decl.(*ast.FuncDecl)
		ast.Inspect(decl, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FieldList:
				// A method's receiver names its type; that is no use of it.
				if fn != nil && x == fn.Recv {
					return false
				}
			case *ast.Ident:
				if obj := info.Uses[x]; obj != nil {
					m.uses = append(m.uses, use{origin(obj), f, fn, x.Pos()})
					if tn, ok := obj.(*types.TypeName); ok && !f.test {
						m.addIface(tn.Type())
					}
				}
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil {
					for _, fld := range embeddedPath(sel.Recv(), sel.Index()) {
						m.uses = append(m.uses, use{fld, f, fn, x.Sel.Pos()})
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						lhs = sel.Sel
					}
					if id, ok := lhs.(*ast.Ident); ok && info.Uses[id] != nil {
						m.sets = append(m.sets, use{origin(info.Uses[id]), f, fn, id.Pos()})
					}
				}
			case *ast.GoStmt:
				m.gos = append(m.gos, use{nil, f, fn, x.Pos()})
			case *ast.CompositeLit:
				t := types.Unalias(info.TypeOf(x))
				if p, ok := t.(*types.Pointer); ok { // an elided &T in []*T{{…}}
					t = types.Unalias(p.Elem())
				}
				if named, ok := t.(*types.Named); ok {
					m.lits = append(m.lits, use{named.Origin().Obj(), f, fn, x.Pos()})
				}
				if st, ok := t.Underlying().(*types.Struct); ok {
					for i, elt := range x.Elts {
						var fld types.Object
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							fld = info.Uses[kv.Key.(*ast.Ident)]
						} else if i < st.NumFields() {
							fld = st.Field(i)
						}
						if fld != nil {
							m.sets = append(m.sets, use{origin(fld), f, fn, elt.Pos()})
						}
					}
				}
			case *ast.InterfaceType:
				if !f.test {
					m.addIface(info.TypeOf(x))
				}
			}
			return true
		})
	}
}

// addIface records t when it is an interface with methods.
func (m *module) addIface(t types.Type) {
	if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
		m.ifaces[iface] = true
	}
}

// embeddedPath returns the embedded fields a selection with index path
// idx passes through on its way from recv to the member it selects.
func embeddedPath(recv types.Type, idx []int) []types.Object {
	var out []types.Object
	t := recv
	for _, i := range idx[:len(idx)-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || i >= st.NumFields() {
			break
		}
		fld := st.Field(i)
		out = append(out, fld.Origin())
		t = fld.Type()
	}
	return out
}

// where renders a position as "file:line".
func (m *module) where(pos token.Pos) string {
	p := m.fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// inDir reports whether f sits directly in one of dirs.
func (f *file) inDir(dirs ...string) bool { return slices.Contains(dirs, f.pkg.dir) }

// under reports whether name is dir or lies below it.
func under(name, dir string) bool { return name == dir || strings.HasPrefix(name, dir+"/") }

// member resolves "Type.Member" (a method or field) or "Name" (a
// package-level object) in the module package at import path ipath.
func (m *module) member(ipath, name string) (types.Object, error) {
	p := m.byPath[ipath]
	if p == nil {
		return nil, fmt.Errorf("no package %s", ipath)
	}
	typ, mem, isMember := strings.Cut(name, ".")
	obj := p.types.Scope().Lookup(typ)
	if obj != nil && isMember {
		obj, _, _ = types.LookupFieldOrMethod(types.NewPointer(obj.Type()), false, p.types, mem)
	}
	if obj == nil {
		return nil, fmt.Errorf("%s.%s does not exist: a rule names it", ipath, name)
	}
	return obj, nil
}

// recvBase is the name of fn's receiver's base type, or "" for a function.
func recvBase(fn *ast.FuncDecl) string {
	if fn == nil || fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func funcName(fn *ast.FuncDecl) string {
	if fn == nil {
		return "package scope"
	}
	if r := recvBase(fn); r != "" {
		return r + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// A rule returns one line per violation, "file:line: what".
type rule struct {
	name  string
	check func(m *module) []string
}

// forbidUses reports each use, in a non-test file that in selects, of
// one of the named objects of package ipath outside the functions ok
// allows (ok nil allows none).
func forbidUses(m *module, ipath string, names []string, in func(*file) bool, ok func(*ast.FuncDecl) bool) []string {
	var bad []string
	targets := map[types.Object]string{}
	for _, n := range names {
		obj, err := m.member(ipath, n)
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		targets[obj] = n
	}
	for _, u := range m.uses {
		if n, hit := targets[u.obj]; hit && !u.f.test && in(u.f) && (ok == nil || !ok(u.fn)) {
			bad = append(bad, fmt.Sprintf("%s: %s uses %s", m.where(u.pos), funcName(u.fn), n))
		}
	}
	return bad
}

// forbidDecls reports each non-test declaration, outside the packages in
// allowed, of a function or method with one of names.
func forbidDecls(m *module, names []string, allowed ...string) []string {
	var bad []string
	for _, f := range m.files {
		if f.test || f.inDir(allowed...) {
			continue
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && slices.Contains(names, fd.Name.Name) {
				bad = append(bad, fmt.Sprintf("%s: declares %s", m.where(fd.Pos()), funcName(fd)))
			}
		}
	}
	return bad
}

func inPkgs(dirs ...string) func(*file) bool { return func(f *file) bool { return f.inDir(dirs...) } }

var layerRules = []rule{
	{"compat.go serves bench/ only", func(m *module) []string {
		// internal/exec/compat.go keeps the old execution names alive for
		// the frozen bench/ module and nothing else: no object compat.go or
		// compat_test.go declares is used outside them and bench/, so the
		// root module builds and tests without the two files.
		const compat = "internal/exec/compat.go"
		if m.byName[compat] == nil {
			return []string{compat + " is gone: this rule guards nothing"}
		}
		isCompat := func(name string) bool {
			return path.Dir(name) == "internal/exec" && strings.HasPrefix(path.Base(name), "compat")
		}
		var bad []string
		for _, u := range m.uses {
			if u.obj.Pkg() == nil || u.obj.Pkg().Path() != modulePath+"/internal/exec" {
				continue // a position of another package may be another file set's
			}
			if decl := m.fset.Position(u.obj.Pos()).Filename; isCompat(decl) && !isCompat(u.f.name) && !under(u.f.name, "bench") {
				bad = append(bad, fmt.Sprintf("%s: uses %s of %s", m.where(u.pos), u.obj.Name(), decl))
			}
		}
		return bad
	}},
	{"oracle stays outside the binary", func(m *module) []string {
		// internal/oracle is the dense reference the engines are pinned
		// to. Only _test.go files import it, so no command, no library
		// package and not pathsel depends on it.
		var bad []string
		for _, f := range m.files {
			for _, is := range f.ast.Imports {
				if p, _ := strconv.Unquote(is.Path.Value); p == modulePath+"/internal/oracle" && !f.test {
					bad = append(bad, fmt.Sprintf("%s: a non-test file imports %s", m.where(is.Pos()), p))
				}
			}
		}
		return bad
	}},
	{"the executor never calls UnionWith", func(m *module) []string {
		// An RPQ fold's ε and skip terms are part of its sharded step
		// (HybridRelation.Extend), not union passes after it. UnionWith
		// stays for paths and as the fused kernels' reference in tests.
		return forbidUses(m, modulePath+"/internal/bitset", []string{"HybridRelation.UnionWith"},
			inPkgs("internal/exec"), nil)
	}},
	{"internal/sched starts the engine's workers", func(m *module) []string {
		// An execution is one strand, and census subtrees and step shards
		// are scheduler tasks: no non-test file of internal/exec,
		// internal/paths, pathsel or internal/serve starts a goroutine or
		// waits for one, so every engine worker is a scheduler's and a
		// panic on it is contained. The load client
		// (internal/serve/load.go) is the exception: its replayer workers
		// are client goroutines, not the engine's. A request is one strand
		// too: internal/serve runs its queries one after another and
		// imports no scheduler, so one admitted slot holds one query's
		// Config.Workers and no more.
		engine := inPkgs("internal/exec", "internal/paths", "pathsel", "internal/serve")
		in := func(f *file) bool { return engine(f) && f.name != "internal/serve/load.go" }
		serve := inPkgs("internal/serve")
		var bad []string
		for _, f := range m.files {
			for _, is := range f.ast.Imports {
				if p, _ := strconv.Unquote(is.Path.Value); p == modulePath+"/internal/sched" && !f.test && serve(f) {
					bad = append(bad, fmt.Sprintf("%s: a non-test file of internal/serve imports %s", m.where(is.Pos()), p))
				}
			}
		}
		for _, g := range m.gos {
			if !g.f.test && in(g.f) {
				bad = append(bad, fmt.Sprintf("%s: %s starts a goroutine", m.where(g.pos), funcName(g.fn)))
			}
		}
		for _, u := range m.uses {
			if !u.f.test && in(u.f) && u.obj.Pkg() != nil && u.obj.Pkg().Path() == "sync" && u.obj.Name() == "WaitGroup" {
				bad = append(bad, fmt.Sprintf("%s: %s uses sync.WaitGroup", m.where(u.pos), funcName(u.fn)))
			}
		}
		return bad
	}},
	{"the graph keeps no |V|-bit tables", func(m *module) []string {
		// A step scatters its targets' CSR rows whatever its left row's
		// shape, so the graph has one operand per direction, and only
		// internal/oracle — which holds the one dense bit set — builds
		// successor or predecessor sets.
		bad := forbidDecls(m, []string{"LabelCSR", "PredecessorCSR"})
		return append(bad, forbidDecls(m, []string{"SuccessorSets", "PredecessorSets"}, "internal/oracle")...)
	}},
	{"pathsel reaches the planner through one seam", func(m *module) []string {
		// pathsel plans and sizes through exec.NewPlanner and the
		// Planner's methods: it builds no Planner and binds no cache view
		// itself, only Compile plans and sizes a query — an execution runs
		// the plan Compile made — and only patternExpansions, the exact
		// oracle's route, enumerates a pattern's expansions.
		in := inPkgs("pathsel")
		exec := modulePath + "/internal/exec"
		bad := forbidUses(m, exec, []string{"RPQDag.Expansions"}, in,
			func(fn *ast.FuncDecl) bool { return fn != nil && fn.Name.Name == "patternExpansions" })
		bad = append(bad, forbidUses(m, exec, []string{"Planner.Plan", "Planner.Estimate"}, in,
			func(fn *ast.FuncDecl) bool { return fn != nil && fn.Name.Name == "Compile" })...)
		planner, err := m.member(exec, "Planner")
		if err != nil {
			return append(bad, err.Error())
		}
		cached, err := m.member(exec, "Planner.Cached")
		if err != nil {
			return append(bad, err.Error())
		}
		for _, s := range m.sets {
			if s.obj == cached && !s.f.test && in(s.f) {
				bad = append(bad, fmt.Sprintf("%s: %s sets Planner.Cached", m.where(s.pos), funcName(s.fn)))
			}
		}
		for _, l := range m.lits {
			if l.obj == planner && !l.f.test && in(l.f) {
				bad = append(bad, fmt.Sprintf("%s: %s writes an exec.Planner literal", m.where(l.pos), funcName(l.fn)))
			}
		}
		return bad
	}},
	{"an estimator runs on its build snapshot", func(m *module) []string {
		// An Estimator holds the CSR Build froze and counted, never the
		// mutable Graph nor a census — the census lives only inside Build,
		// and exact answers are computed from the CSR — and only the
		// Graph's own methods and Build freeze a Graph: nothing freezes one
		// lazily on an execution path.
		sel := modulePath + "/pathsel"
		bad := forbidUses(m, sel, []string{"Graph.csr"}, inPkgs("pathsel"), func(fn *ast.FuncDecl) bool {
			return recvBase(fn) == "Graph" || (fn != nil && fn.Recv == nil && fn.Name.Name == "Build")
		})
		est, err := m.member(sel, "Estimator")
		if err != nil {
			return append(bad, err.Error())
		}
		graph, err := m.member(sel, "Graph")
		if err != nil {
			return append(bad, err.Error())
		}
		census, err := m.member(modulePath+"/internal/paths", "Census")
		if err != nil {
			return append(bad, err.Error())
		}
		var walk func(t types.Type)
		walk = func(t types.Type) {
			st, _ := t.Underlying().(*types.Struct)
			for i := 0; st != nil && i < st.NumFields(); i++ {
				fld := st.Field(i)
				ft := fld.Type()
				if p, ok := ft.(*types.Pointer); ok {
					ft = p.Elem()
				}
				named, _ := ft.(*types.Named)
				if named != nil && (named.Obj() == graph || named.Obj() == census) {
					bad = append(bad, fmt.Sprintf("%s: Estimator holds a %s in field %s", m.where(fld.Pos()), named.Obj().Name(), fld.Name()))
				} else if fld.Embedded() {
					walk(ft)
				}
			}
		}
		walk(est.Type())
		return bad
	}},
	{"an experiment is one table", func(m *module) []string {
		// Every experiment returns tables and one Table type writes them
		// as CSV, and cmd/experiments reaches the package only through the
		// registry, the options and Table: the command, the CSV files and
		// the golden gate run one list.
		var bad, sites []string
		allowed := []string{"Experiments", "Options", "DefaultOptions", "PaperOptions", "Table"}
		for _, u := range m.uses {
			if u.f.test || under(u.f.name, "bench") || u.obj.Pkg() == nil {
				continue
			}
			if u.obj.Pkg().Path() == "encoding/csv" && u.obj.Name() == "NewWriter" {
				sites = append(sites, fmt.Sprintf("%s (%s)", m.where(u.pos), funcName(u.fn)))
			}
			if u.f.inDir("cmd/experiments") && u.obj.Pkg().Path() == modulePath+"/internal/experiments" &&
				u.obj.Parent() == u.obj.Pkg().Scope() && !slices.Contains(allowed, u.obj.Name()) {
				bad = append(bad, fmt.Sprintf("%s: cmd/experiments uses experiments.%s", m.where(u.pos), u.obj.Name()))
			}
		}
		if len(sites) > 1 {
			bad = append(bad, fmt.Sprintf("csv.NewWriter is called at %d sites, Table.WriteCSV is the one writer: %s",
				len(sites), strings.Join(sites, ", ")))
		}
		return bad
	}},
	{"every package has a doc comment", func(m *module) []string {
		// go doc and the layer map start from it.
		var bad []string
		for _, p := range m.pkgs {
			if under(p.dir, "bench") || strings.HasSuffix(p.path, "_test") {
				continue
			}
			doc, code := false, false
			for _, f := range p.files {
				if !f.test {
					code = true
					doc = doc || f.ast.Doc != nil
				}
			}
			if code && !doc {
				bad = append(bad, fmt.Sprintf("%s: no package doc comment", p.dir))
			}
		}
		return bad
	}},
	{"every option is set outside tests", func(m *module) []string {
		// An option field is a knob a caller turns: a non-test file, bench/
		// included, writes it — as a struct literal's field or by
		// assignment — outside its type's own methods, so a default that
		// withDefaults fills in keeps nothing alive. A knob only tests turn
		// is a constant; optionExceptions lists the ones kept on purpose,
		// and the list cannot rot.
		var bad []string
		all := map[string]*option{}
		for _, o := range options(m) {
			all[o.name] = o
			if !o.set && !slices.ContainsFunc(optionExceptions, func(e exception) bool { return e.name == o.name }) {
				bad = append(bad, fmt.Sprintf("%s: no non-test code sets option %s: make it a constant", m.where(o.obj.Pos()), o.name))
			}
		}
		for _, e := range optionExceptions {
			switch o := all[e.name]; {
			case o == nil:
				bad = append(bad, fmt.Sprintf("option exception %s is not an option field: drop it from the list", e.name))
			case o.set:
				bad = append(bad, fmt.Sprintf("%s: option exception %s is set outside the tests: drop it from the list", m.where(o.obj.Pos()), e.name))
			}
		}
		return bad
	}},
	{"every exported name under internal/ is called", func(m *module) []string {
		dead, _ := deadNames(m)
		var bad []string
		for _, c := range dead {
			if c.oracle {
				bad = append(bad, fmt.Sprintf("%s: no file, test files included, uses %s: delete it",
					m.where(c.obj.Pos()), c.name))
			} else if !slices.ContainsFunc(testHooks, func(h hook) bool { return h.name == c.name }) {
				bad = append(bad, fmt.Sprintf("%s: nothing outside the tests uses %s: delete it, or move it into the _test.go file that uses it",
					m.where(c.obj.Pos()), c.name))
			}
		}
		return bad
	}},
	{"the test hooks are test hooks", func(m *module) []string {
		// A hook nothing but tests uses is kept on purpose; the list
		// cannot rot: a hook with no test user, or with a non-test user,
		// or whose test users are not the ones listed, fails here.
		_, all := deadNames(m)
		var bad []string
		for _, h := range testHooks {
			c := all[h.name]
			switch {
			case c == nil:
				bad = append(bad, fmt.Sprintf("test hook %s is not an exported name under internal/", h.name))
			case c.live:
				bad = append(bad, fmt.Sprintf("%s: test hook %s is used outside the tests: drop it from the list", m.where(c.obj.Pos()), h.name))
			case len(c.testUsers) == 0:
				bad = append(bad, fmt.Sprintf("%s: test hook %s has no test user: delete it", m.where(c.obj.Pos()), h.name))
			case !slices.Equal(c.testUsers, h.users):
				bad = append(bad, fmt.Sprintf("%s: test hook %s is used by the tests of %v, the list says %v",
					m.where(c.obj.Pos()), h.name, c.testUsers, h.users))
			}
		}
		return bad
	}},
	{"the bench hooks are bench hooks", func(m *module) []string {
		// A name whose only non-test caller is the frozen bench/ module is
		// kept for it alone and goes when bench/ stops calling it; the
		// list is what that deletion removes, and cannot rot: a new
		// bench-only name must be listed, and a listed one that gains a
		// caller outside bench/, or loses bench/'s, fails here.
		_, all := deadNames(m)
		var bad []string
		for _, c := range benchOnly(all) {
			if !slices.ContainsFunc(benchHooks, func(h exception) bool { return h.name == c.name }) {
				bad = append(bad, fmt.Sprintf("%s: only bench/ calls %s outside the tests: list it in benchHooks, or delete it",
					m.where(c.obj.Pos()), c.name))
			}
		}
		for _, h := range benchHooks {
			switch c := all[h.name]; {
			case c == nil:
				bad = append(bad, fmt.Sprintf("bench hook %s is not an exported name under internal/", h.name))
			case !c.benchOnly && c.live:
				bad = append(bad, fmt.Sprintf("%s: bench hook %s is called outside bench/: drop it from the list", m.where(c.obj.Pos()), h.name))
			case !c.benchOnly:
				bad = append(bad, fmt.Sprintf("%s: bench hook %s has no caller in bench/: drop it from the list", m.where(c.obj.Pos()), h.name))
			}
		}
		return bad
	}},
	{"every relation is forward", func(m *module) []string {
		// A zig-zag leaf prepends a label by joining that label's CSR rows
		// with the segment, so no layer reverses a relation or reads the
		// reverse CSR, and the cache keeps no orientation: outside bench/,
		// which times both, no non-test file calls ReverseInto or
		// PredecessorOperand.
		outsideBench := func(f *file) bool { return !under(f.name, "bench") }
		bad := forbidUses(m, modulePath+"/internal/bitset", []string{"HybridRelation.ReverseInto"}, outsideBench, nil)
		return append(bad, forbidUses(m, modulePath+"/internal/graph", []string{"CSR.PredecessorOperand"}, outsideBench, nil)...)
	}},
	{"the server decides what answers the estimate", func(m *module) []string {
		// pathsel executes and reports: a refused or killed query is an
		// error, never an estimate in ExecStats. Whether a query answers
		// its estimate instead — brownout, the plan-cost gate, a deadline,
		// degradation — is internal/serve's execute stage alone, which
		// hands the cause to its accounting itself: outside the frozen
		// bench/, which reads it, no non-test file reads or writes
		// ExecStats.Degraded, and no package but internal/serve declares
		// degradable.
		outsideBench := func(f *file) bool { return !under(f.name, "bench") }
		bad := forbidUses(m, modulePath+"/pathsel", []string{"ExecStats.Degraded"}, outsideBench, nil)
		return append(bad, forbidDecls(m, []string{"degradable"}, "internal/serve")...)
	}},
}

// An option is an exported field of an exported struct type whose name
// ends in Config, Options or Policy, declared in a non-test file.
type option struct {
	name  string // "dir.Type.Field"
	obj   *types.Var
	owner *types.TypeName
	set   bool // a non-test file writes it outside the owner's methods
}

// An exception is a name a rule would fail, kept on purpose: an option no
// non-test code sets, or a name only bench/ calls.
type exception struct{ name, why string }

var optionExceptions = []exception{
	{"internal/exec.Options.KeepResult", "the bit-identity suites read the result relation through it"},
	{"pathsel.Config.DensityThreshold", "bench/ reads it, and bench/ changes only with the benchmark"},
}

// options returns every option field of the module, sorted by name.
func options(m *module) []*option {
	var out []*option
	byObj := map[types.Object]*option{}
	isOption := func(name string) bool {
		return slices.ContainsFunc([]string{"Config", "Options", "Policy"}, func(suffix string) bool {
			return strings.HasSuffix(name, suffix)
		})
	}
	for _, f := range m.files {
		if f.test {
			continue
		}
		for _, d := range f.ast.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() || !isOption(ts.Name.Name) {
					continue
				}
				if _, lit := ts.Type.(*ast.StructType); !lit {
					continue
				}
				tn := f.pkg.info.Defs[ts.Name].(*types.TypeName)
				st := tn.Type().Underlying().(*types.Struct)
				for i := 0; i < st.NumFields(); i++ {
					if fld := st.Field(i); fld.Exported() {
						o := &option{name: f.pkg.dir + "." + tn.Name() + "." + fld.Name(), obj: fld, owner: tn}
						out = append(out, o)
						byObj[fld] = o
					}
				}
			}
		}
	}
	for _, s := range m.sets {
		o := byObj[s.obj]
		if o == nil || s.f.test {
			continue
		}
		if recvBase(s.fn) != o.owner.Name() || s.f.pkg.types != o.owner.Pkg() {
			o.set = true
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// A candidate is an exported func, type, method, field, const or var
// declared in a non-test file under internal/.
type candidate struct {
	name      string // "internal/pkg.Name" or "internal/pkg.Type.Member"
	obj       types.Object
	live      bool
	benchOnly bool     // live only through bench/: no other non-test file uses it
	testUsers []string // directories of the test files that use it, sorted
	oracle    bool     // declared in internal/oracle: live when any file uses it
}

// A hook is an exported name only tests use, kept on purpose: a test
// probe, or a reference implementation tests in several packages share.
type hook struct {
	name  string
	users []string // directories of the test files that use it, sorted
	why   string
}

var testHooks = []hook{
	{"internal/exec.RelPool.InUse", []string{"internal/exec", "pathsel"},
		"the leak check: a finished or aborted execution holds no pooled relation"},
	{"internal/faultinject.Injector.Visits", []string{"internal/exec", "internal/faultinject"},
		"how often a fault site was reached"},
	{"internal/faultinject.Injector.Triggered", []string{"internal/faultinject", "internal/sched", "internal/serve", "pathsel"},
		"how often a fault rule fired"},
	{"internal/bitset.HybridRelation.Equal", []string{"internal/bitset", "internal/exec", "internal/relcache"},
		"the pair-set comparison every bit-identity suite checks a result with"},
	{"internal/combinat.RankPermutation", []string{"internal/combinat", "internal/ordering"},
		"the reference the sum-based ordering's ranking is checked against"},
	{"internal/bitset.Packed.CloneMemSize", []string{"internal/bitset"},
		"a whole-query hit is to read its price off the entry instead of copying it out (roadmap item 2(i))"},
}

// benchHooks are the exported names under internal/ whose only non-test
// caller is the frozen bench/ module, with what it calls them for: they go
// when bench/ stops (roadmap item 1′(b)).
var benchHooks = []exception{
	{"internal/bitset.HybridRelation.Clone", "bitset.clone_ns_per_pair"},
	{"internal/bitset.HybridRelation.CopyInto", "bitset.copy_ns_per_pair"},
	{"internal/bitset.HybridRelation.JoinInto", "bitset.join_ns_per_pair"},
	{"internal/bitset.HybridRelation.ReverseInto", "bitset.reverse_ns_per_pair: every relation is forward, so nothing else reverses"},
	{"internal/bitset.HybridRelation.RowCount", "bitset.dense_row_share"},
	{"internal/bitset.HybridRelation.RowDense", "bitset.dense_row_share"},
	{"internal/bitset.Packed.Pairs", "relcache.get_ns reads a hit's size"},
	{"internal/exec.CheapestPlan", "compat.go: bench/'s planner levels"},
	{"internal/exec.ExecuteDagChecked", "compat.go: exec.run_us"},
	{"internal/exec.ExecutePlanChecked", "compat.go: exec.run_us and exec.plan_regret"},
	{"internal/exec.ExecuteTreeChecked", "compat.go: exec.run_us"},
	{"internal/exec.Planner.ChooseTreeWithCost", "compat.go: exec.plan_ns"},
	{"internal/exec.Planner.Costs", "compat.go: exec.plan_ns and exec.plan_regret"},
	{"internal/exec.Planner.PlanDag", "compat.go: exec.plan_ns"},
	{"internal/graph.CSR.PredecessorOperand", "graph.operands_ms forces it: no step reads the reverse CSR"},
	{"internal/relcache.Cache.Get", "relcache.get_ns: the path form of GetKey"},
	{"internal/relcache.Cache.Put", "relcache.put_us: the path form of PutKey"},
	{"internal/serve.New", "bench/'s in-process server; cmd/pathserve serves behind NewWithOverload"},
	{"internal/serve.Server.ServeHTTP", "serve.handler_us: the handler into an in-memory recorder"},
}

// stdCalled names the standard library's interfaces, beside error and
// Unwrap, whose methods it calls without the code naming them.
var stdCalled = []string{"fmt.Stringer", "encoding/json.Marshaler", "encoding/json.Unmarshaler", "container/heap.Interface", "sort.Interface"}

// stdInterfaces are the interfaces the standard library calls without
// the code naming them: error, Unwrap (errors.Is and errors.As) and
// stdCalled's.
func (m *module) stdInterfaces() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	unwrap := func(res types.Type) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", res)), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", sig)}, nil).Complete()
	}
	out := []*types.Interface{errType.Underlying().(*types.Interface), unwrap(errType), unwrap(types.NewSlice(errType))}
	for _, q := range stdCalled {
		i := strings.LastIndex(q, ".")
		p, err := m.std.Import(q[:i])
		if err != nil {
			panic(err)
		}
		out = append(out, p.Scope().Lookup(q[i+1:]).Type().Underlying().(*types.Interface))
	}
	return out
}

// deadNames returns the candidates no non-test file uses and no
// interface reaches, sorted by name, and every candidate by name.
//
// A candidate is live when a non-test file, bench/ included, uses it —
// bench-only when bench/'s files are the only ones —; when it is a method
// that satisfies an interface the non-test code
// names or writes as a literal, or one the standard library calls
// (stdInterfaces) — for every package-level type that implements the
// interface, its method set's member is live, promoted ones included; or
// when it is an embedded field a live selection passes through.
// internal/oracle is test-only by design ("oracle stays outside the
// binary"): its exported names are candidates live when any file, test
// files included, uses them, and its files count as tests for every other
// candidate.
func deadNames(m *module) ([]*candidate, map[string]*candidate) {
	all := map[string]*candidate{}
	byObj := map[types.Object]*candidate{}
	var named []*types.TypeName
	ifaces := m.stdInterfaces()
	for iface := range m.ifaces {
		ifaces = append(ifaces, iface)
	}
	for _, f := range m.files {
		if f.test {
			continue
		}
		info := f.pkg.info
		add := func(name string, obj types.Object) {
			if under(f.pkg.dir, "internal") {
				c := &candidate{name: name, obj: obj, oracle: under(f.pkg.dir, "internal/oracle")}
				all[name], byObj[obj] = c, c
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					add(f.pkg.dir+"."+funcName(d), info.Defs[d.Name])
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						tn := info.Defs[s.Name].(*types.TypeName)
						named = append(named, tn)
						prefix := f.pkg.dir + "." + s.Name.Name + "."
						if s.Name.IsExported() {
							add(f.pkg.dir+"."+s.Name.Name, tn)
						}
						switch u := tn.Type().Underlying().(type) {
						case *types.Struct:
							if _, lit := s.Type.(*ast.StructType); lit {
								for i := 0; i < u.NumFields(); i++ {
									if fld := u.Field(i); fld.Exported() {
										add(prefix+fld.Name(), fld)
									}
								}
							}
						case *types.Interface:
							for i := 0; i < u.NumExplicitMethods(); i++ {
								if fn := u.ExplicitMethod(i); fn.Exported() {
									add(prefix+fn.Name(), fn)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								add(f.pkg.dir+"."+n.Name, info.Defs[n])
							}
						}
					}
				}
			}
		}
	}
	live, benched := map[types.Object]bool{}, map[types.Object]bool{}
	users := map[types.Object]map[string]bool{}
	for _, u := range m.uses {
		c := byObj[u.obj]
		switch {
		case c == nil:
		case c.oracle:
			live[u.obj] = true
		case u.f.test || under(u.f.pkg.dir, "internal/oracle"):
			if users[u.obj] == nil {
				users[u.obj] = map[string]bool{}
			}
			users[u.obj][u.f.pkg.dir] = true
		case under(u.f.name, "bench"):
			benched[u.obj] = true
		default:
			live[u.obj] = true
		}
	}
	for _, tn := range named {
		if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
			continue // its methods are reached through instantiations, by origin
		}
		for _, recv := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
			for _, iface := range ifaces {
				if !types.Implements(recv, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					obj, idx, _ := types.LookupFieldOrMethod(recv, false, tn.Pkg(), iface.Method(i).Name())
					if obj == nil {
						continue
					}
					live[origin(obj)] = true
					for _, fld := range embeddedPath(recv, idx) {
						live[fld] = true
					}
				}
			}
		}
	}
	var dead []*candidate
	for _, c := range all {
		for u := range users[c.obj] {
			c.testUsers = append(c.testUsers, u)
		}
		sort.Strings(c.testUsers)
		c.benchOnly = benched[c.obj] && !live[c.obj]
		if c.live = live[c.obj] || benched[c.obj]; !c.live {
			dead = append(dead, c)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	return dead, all
}

// codeLines counts the lines of files that hold code once // comments
// are cut: the measure the roadmap's line baselines have always used.
func codeLines(files []*file) int {
	n := 0
	for _, f := range files {
		for _, line := range strings.Split(string(f.src), "\n") {
			if i := strings.Index(line, "//"); i >= 0 {
				line = line[:i]
			}
			if strings.TrimSpace(line) != "" {
				n++
			}
		}
	}
	return n
}

// exportedNames counts the exported package-level objects and exported
// methods that files declare.
func exportedNames(files []*file) int {
	n := 0
	for _, f := range files {
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					n++
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							n++
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								n++
							}
						}
					}
				}
			}
		}
	}
	return n
}

// code returns the non-test files of the given directories, or of the
// whole module outside bench/ when dirs is empty, leaving out files
// whose base name is in except.
func (m *module) code(dirs []string, except ...string) []*file {
	var out []*file
	for _, f := range m.files {
		if f.test || slices.Contains(except, path.Base(f.name)) {
			continue
		}
		if len(dirs) == 0 && !under(f.name, "bench") || slices.ContainsFunc(dirs, func(d string) bool {
			return f.pkg.dir == d || strings.HasSuffix(d, "/...") && under(f.pkg.dir, strings.TrimSuffix(d, "/..."))
		}) {
			out = append(out, f)
		}
	}
	return out
}

func logSurface(t *testing.T, m *module) {
	dirs := func(d ...string) []string { return d }
	execSel := dirs("internal/exec", "pathsel")
	t.Logf("code lines, internal/exec + pathsel: %d (%d without compat.go)",
		codeLines(m.code(execSel)), codeLines(m.code(execSel, "compat.go")))
	t.Logf("exported names, internal/exec: %d (%d without compat.go)",
		exportedNames(m.code(dirs("internal/exec"))), exportedNames(m.code(dirs("internal/exec"), "compat.go")))
	t.Logf("exported names, pathsel: %d", exportedNames(m.code(dirs("pathsel"))))
	t.Logf("code lines, internal/experiments + cmd: %d", codeLines(m.code(dirs("internal/experiments", "cmd/..."))))
	for _, d := range []string{"internal/bitset", "internal/graph", "internal/sched"} {
		t.Logf("code lines / exported names, %s: %d / %d", d, codeLines(m.code(dirs(d))), exportedNames(m.code(dirs(d))))
	}
	for _, d := range []string{"internal/serve", "internal/relcache", "internal/oracle"} {
		t.Logf("code lines, %s: %d", d, codeLines(m.code(dirs(d))))
	}
	t.Logf("code lines, non-test Go outside bench/: %d", codeLines(m.code(nil)))
	t.Logf("code lines, bench/: %d", codeLines(m.code(dirs("bench/..."))))
	t.Logf("option fields (exported fields of exported *Config, *Options and *Policy structs): %d", len(options(m)))
	dead, all := deadNames(m)
	t.Logf("exported names under internal/ that only tests use: %d", len(dead))
	for _, c := range dead {
		t.Logf("  %s (tests of %s)", c.name, strings.Join(c.testUsers, ", "))
	}
	bench := benchOnly(all)
	t.Logf("exported names under internal/ whose only non-test caller is bench/: %d", len(bench))
	for _, c := range bench {
		t.Logf("  %s", c.name)
	}
}

// benchOnly returns the candidates only bench/ uses outside the tests,
// sorted by name.
func benchOnly(all map[string]*candidate) []*candidate {
	var out []*candidate
	for _, c := range all {
		if c.benchOnly {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func TestLayerRules(t *testing.T) {
	m, err := loadModule(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range layerRules {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(m) {
				t.Error(v)
			}
		})
	}
	t.Run("surface measures", func(t *testing.T) { logSurface(t, m) })
}

// loadFixture loads a module of in-memory files.
func loadFixture(t *testing.T, files map[string]string) *module {
	t.Helper()
	fsys := fstest.MapFS{}
	for name, src := range files {
		fsys[name] = &fstest.MapFile{Data: []byte(src)}
	}
	m, err := loadModule(fsys)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDeadNamesFixtures proves the dead-name rule both ways on small
// modules: each case names exactly the candidates that must come out
// dead, and every other exported name in it must come out live.
func TestDeadNamesFixtures(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		dead  []string
	}{{
		// A by-name measure sees Cause twice and calls both live.
		name: "a namesake does not hide a dead method",
		files: map[string]string{
			"internal/a/a.go": `// Package a is a fixture.
package a

type Used struct{}

func (Used) Cause() error { return nil }

type Hidden struct{}

func (Hidden) Cause() error { return nil }
`,
			"internal/a/a_test.go": `package a

import "testing"

func TestCause(t *testing.T) { _ = Hidden{}.Cause() }
`,
			"cmd/x/main.go": `// Command x is a fixture.
package main

import "repro/internal/a"

func main() { _, _ = a.Used{}.Cause(), a.Hidden{} }
`,
		},
		dead: []string{"internal/a.Hidden.Cause"},
	}, {
		name: "an implementer of an interface literal is live",
		files: map[string]string{
			"internal/b/b.go": `// Package b is a fixture.
package b

type Namer struct{}

func (Namer) LabelName(int) string { return "" }

func (Namer) LabelNames() []string { return nil }

func Show(n interface{ LabelName(int) string }) string { return n.LabelName(0) }
`,
			"cmd/x/main.go": `// Command x is a fixture.
package main

import "repro/internal/b"

func main() { _ = b.Show(b.Namer{}) }
`,
		},
		dead: []string{"internal/b.Namer.LabelNames"},
	}, {
		name: "a generic type's members are reached through their origin",
		files: map[string]string{
			"internal/c/c.go": `// Package c is a fixture.
package c

type Pool[T any] struct {
	New   func() T
	Spare []T
}

func (p *Pool[T]) Get() T { return p.New() }

func (p *Pool[T]) Drop() {}
`,
			"cmd/x/main.go": `// Command x is a fixture.
package main

import "repro/internal/c"

func main() {
	p := &c.Pool[int]{New: func() int { return 1 }}
	_ = p.Get()
}
`,
		},
		dead: []string{"internal/c.Pool.Drop", "internal/c.Pool.Spare"},
	}, {
		name: "a promoted method that satisfies an interface is live",
		files: map[string]string{
			"internal/d/d.go": `// Package d is a fixture.
package d

type Shape interface {
	Size() int
	Name() string
}

type common struct{ n int }

func (c common) Size() int { return c.n }

func (c common) Extra() int { return c.n }

type Square struct{ common }

func (Square) Name() string { return "square" }

func Describe(s Shape) string { return s.Name() + string(rune(s.Size())) }
`,
			"cmd/x/main.go": `// Command x is a fixture.
package main

import "repro/internal/d"

func main() { _ = d.Describe(d.Square{}) }
`,
		},
		dead: []string{"internal/d.common.Extra"},
	}, {
		name: "heap.Interface methods are live, the type's others are not",
		files: map[string]string{
			"internal/e/e.go": `// Package e is a fixture.
package e

import "container/heap"

type minHeap []int

func (h minHeap) Len() int           { return len(h) }
func (h minHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h minHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *minHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
func (h minHeap) Peek() int { return h[0] }

const Unused = 1

var Smallest = func(xs []int) int {
	h := minHeap(xs)
	heap.Init(&h)
	return heap.Pop(&h).(int)
}
`,
			"cmd/x/main.go": `// Command x is a fixture.
package main

import "repro/internal/e"

func main() { _ = e.Smallest([]int{2, 1}) }
`,
		},
		dead: []string{"internal/e.Unused", "internal/e.minHeap.Peek"},
	}, {
		// internal/oracle is test-only: a test's use keeps its name live,
		// and its own use of another package's name is a test's.
		name: "an oracle name is live when any file uses it",
		files: map[string]string{
			"internal/b/b.go": `// Package b is a fixture.
package b

func Ref() int { return 1 }
`,
			"internal/oracle/oracle.go": `// Package oracle is a fixture.
package oracle

import "repro/internal/b"

func Used() int { return Helper() }

func Helper() int { return b.Ref() }

func Local() int { return 2 }

func Unused() int { return 3 }
`,
			"internal/oracle/oracle_test.go": `package oracle

import "testing"

func TestLocal(t *testing.T) { _ = Local() }
`,
			"internal/a/a.go": `// Package a is a fixture.
package a
`,
			"internal/a/a_test.go": `package a

import (
	"testing"

	"repro/internal/oracle"
)

func TestUsed(t *testing.T) { _ = oracle.Used() }
`,
		},
		dead: []string{"internal/b.Ref", "internal/oracle.Unused"},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dead, all := deadNames(loadFixture(t, c.files))
			var got []string
			for _, d := range dead {
				got = append(got, d.name)
			}
			if !slices.Equal(got, c.dead) {
				names := make([]string, 0, len(all))
				for n := range all {
					names = append(names, n)
				}
				sort.Strings(names)
				t.Errorf("dead = %v, want %v (candidates %v)", got, c.dead, names)
			}
		})
	}
}

// TestGoroutineRuleFixture checks that the goroutine rule resolves what
// it reports: a go statement and a WaitGroup in a non-test engine file
// trip it; the same in a test file, in another package, or named in a
// comment or a string does not.
func TestGoroutineRuleFixture(t *testing.T) {
	const src = `// Package exec is a fixture.
package exec

import "sync"

// A comment may say go func() and sync.WaitGroup.
const doc = "go func() { sync.WaitGroup }"

func Fan(f func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); f() }()
	wg.Wait()
}
`
	m := loadFixture(t, map[string]string{
		"internal/exec/exec.go":      src,
		"internal/exec/exec_test.go": strings.NewReplacer("func Fan(", "func fanTest(", "const doc", "const docTest").Replace(src),
		"internal/other/other.go":    strings.Replace(src, "package exec", "package other", 1),
	})
	var check func(*module) []string
	for _, r := range layerRules {
		if r.name == "internal/sched starts the engine's workers" {
			check = r.check
		}
	}
	got := check(m)
	want := []string{
		"internal/exec/exec.go:12: Fan starts a goroutine",
		"internal/exec/exec.go:10: Fan uses sync.WaitGroup",
	}
	if !slices.Equal(got, want) {
		t.Errorf("violations = %q, want %q", got, want)
	}
}

// TestOptionRuleFixture checks what sets an option: a non-test struct
// literal's field, keyed or positional, and a non-test assignment do; a
// write in the type's own method, a test's write and a read do not.
func TestOptionRuleFixture(t *testing.T) {
	m := loadFixture(t, map[string]string{
		"internal/a/a.go": `// Package a is a fixture.
package a

type RunConfig struct {
	Keyed, Assigned, Defaulted, TestSet, Read int
}

type PairOptions struct{ First, Second int }

func (c RunConfig) withDefaults() RunConfig {
	if c.Defaulted == 0 {
		c.Defaulted = 1
	}
	return c
}

func Run(c RunConfig) int { return c.withDefaults().Read }

func Default() (RunConfig, PairOptions) {
	c := RunConfig{Keyed: 1}
	c.Assigned = 2
	return c, PairOptions{1, 2}
}
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestRun(t *testing.T) { _ = Run(RunConfig{TestSet: 1}) }
`,
	})
	var unset []string
	for _, o := range options(m) {
		if !o.set {
			unset = append(unset, o.name)
		}
	}
	want := []string{"internal/a.RunConfig.Defaulted", "internal/a.RunConfig.Read", "internal/a.RunConfig.TestSet"}
	if !slices.Equal(unset, want) {
		t.Errorf("unset options = %q, want %q", unset, want)
	}
}
