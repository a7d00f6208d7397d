package nephelix_test

// The exported surface guard. Every package of this module lives under
// internal/, so an exported identifier there that no non-test code
// references has no caller at all: it is test-only API or dead code.

import (
	"cmp"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported identifiers under internal/ that
// may stay without a non-test caller or reader (package.Name,
// package.Type.Method or package.Type.Field), each with the open ROADMAP
// item or the test that needs it. The two engine tests have no rewrite
// as strong: one reads the tail fit with no observability attached, the
// other compares a read-ready report bit for bit with one recorded twice.
var surfaceAllowlist = map[string]string{
	"core.RebalanceSteps":                 "BenchmarkAblationRebalanceStepSize in bench_test.go",
	"obs.Tracer.VertexAttribution":        "ROADMAP item 3, per-vertex latency attribution",
	"obs.Tracer.AttributionReport":        "ROADMAP item 3",
	"probe.Probe.ReservoirQuantile":       "ROADMAP item 3",
	"workload.IsProbablePrime":            "ROADMAP item 10, the engine PrimeTester adapter",
	"workload.NewNumberSource":            "ROADMAP item 10",
	"workload.NumberSource.Next":          "ROADMAP item 10",
	"ckpt.OpenFileStore":                  "ROADMAP item 7, the one durable checkpoint Store",
	"ckpt.FileStore.Close":                "ROADMAP item 7",
	"master.Loop.TailFitter":              "TestEngineTailFitWithoutObservability (engine)",
	"qos.TaskReporter.RecordTaskLatencyN": "TestReadReadyTaskReportsUnchanged (engine)",
	"engine.Config.SourceShards":          "ROADMAP item 4a: a no-op that bench/ sets",
	"engine.Config.WheelResolution":       "ROADMAP item 4a",
	"engine.Config.DrainIdle":             "ROADMAP item 4a",
	"sim.Result.NodeHours":                "ROADMAP item 2, the hindsight oracle's oracle.csv",
}

// surfaceExempt are method names that the standard library calls through
// a dynamic interface check on a value passed as any, so no static
// reference shows. MarshalJSON and UnmarshalJSON are not among them:
// they count as used when an encoding/json call reaches their type.
var surfaceExempt = map[string]bool{
	"String": true, "Error": true, "MarshalBinary": true, "Int63": true, "Seed": true, "Uint64": true,
}

func TestExportedSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	report, err := unusedExports(".", surfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range report { // delete it, move it into a _test.go file, or allowlist it
		t.Error(line)
	}
}

// TestExportedSurfaceFixture runs the checker on a small module under
// testdata/surface and requires exactly its expected report.
func TestExportedSurfaceFixture(t *testing.T) {
	report, err := unusedExports(filepath.Join("testdata", "surface"), map[string]string{
		"lib.Planned": "allowlisted for an open item",
	})
	if err != nil {
		t.Fatal(err)
	}
	got, want := strings.Join(report, "\n"), strings.Join([]string{
		"internal/lib/lib.go:12 lib.Dead.Err",
		"internal/lib/lib.go:38 lib.OnlyTests",
		"internal/lib/lib.go:47 lib.Config.Dead",
		"internal/lib/lib.go:62 lib.Counters.Written",
		"internal/lib/lib.go:63 lib.Counters.Tested",
		"internal/lib/lib.go:76 lib.Event.Kind",
		"internal/lib/lib.go:84 lib.Report.Cache",
		"internal/lib/lib.go:88 lib.Stamp.Unix",
		"internal/lib/lib.go:95 lib.Unsent.MarshalJSON",
		"internal/lib/lib.go:101 lib.Level.Code",
	}, "\n")
	if got != want {
		t.Fatalf("report:\n%s\nwant:\n%s", got, want)
	}
}

// unusedExports type-checks every non-test package of the module rooted
// at root and reports, as "file:line package.Name" sorted by position,
// each exported identifier declared under internal/ that no non-test
// code references outside its own declaration. Methods resolve by type;
// a method also counts as used when its type satisfies a used interface
// or generic constraint that has it. An exported field of a package-level
// struct type (package.Type.Field) counts as used when non-test code
// reads it: every reference is a read except the target of an
// assignment, ++ or --, and the key of a keyed literal, and an unkeyed
// literal reads no field. A field is also read when non-test code passes
// to a function or method of encoding/json or fmt a value whose static
// type reaches the field's struct through pointers, slices, arrays, maps
// and struct fields, short of a type that formats itself (MarshalJSON
// for encoding/json; String, Error or Format for fmt) and, for
// encoding/json, of fields tagged `json:"-"`; the same walk from an
// encoding/json call uses the MarshalJSON and UnmarshalJSON methods of
// the types it reaches. Embedded
// fields are not candidates. Interface methods and the names in
// surfaceExempt are not reported. An allowlist entry that is not an
// offender is reported as stale.
func unusedExports(root string, allow map[string]string) ([]string, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	dirs := map[string]string{} // import path -> directory
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, p)
		dirs[path.Join(modPath, filepath.ToSlash(rel))] = p
		return nil
	})
	if err != nil {
		return nil, err
	}

	type checked struct {
		pkg   *types.Package
		rel   string
		files []*ast.File
		info  *types.Info
	}
	pkgs := map[string]*checked{}
	std := importer.ForCompiler(fset, "source", nil)
	var imp importerFunc
	imp = func(ip string) (*types.Package, error) {
		if c, ok := pkgs[ip]; ok {
			if c == nil {
				return nil, fmt.Errorf("import cycle through %s", ip)
			}
			return c.pkg, nil
		}
		dir, ok := dirs[ip]
		if !ok {
			return std.Import(ip)
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		pkgs[ip] = nil
		c := &checked{info: &types.Info{
			Types:     map[ast.Expr]types.TypeAndValue{},
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Instances: map[*ast.Ident]types.Instance{},
		}}
		c.rel, _ = filepath.Rel(root, dir)
		c.rel = filepath.ToSlash(c.rel)
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			c.files = append(c.files, f)
		}
		conf := types.Config{Importer: imp}
		c.pkg, err = conf.Check(ip, fset, c.files, c.info)
		if err != nil {
			return nil, err
		}
		pkgs[ip] = c
		return c.pkg, nil
	}
	for ip := range dirs {
		if _, err := imp(ip); err != nil && !errors.As(err, new(*build.NoGoError)) {
			return nil, err
		}
	}

	// Candidates: exported package-level objects and exported methods
	// declared under internal/, each with the span of its declaration.
	type candidate struct {
		name     string
		pos      token.Pos
		from, to token.Pos
	}
	cands := map[types.Object]*candidate{}
	skip := map[token.Pos]bool{} // receiver type identifiers
	for _, c := range pkgs {
		if c.rel != "internal" && !strings.HasPrefix(c.rel, "internal/") {
			continue
		}
		add := func(id *ast.Ident, name string, from, to token.Pos) {
			if obj := c.info.Defs[id]; obj != nil {
				cands[obj] = &candidate{name: c.pkg.Name() + "." + name, pos: id.Pos(), from: from, to: to}
			}
		}
		for _, f := range c.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv != nil {
						recv := "" // the first identifier of *T, T[K] or *T[K]
						ast.Inspect(d.Recv.List[0].Type, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								skip[id.Pos()] = true
								recv = cmp.Or(recv, id.Name)
							}
							return true
						})
						if surfaceExempt[name] {
							continue
						}
						name = recv + "." + name
					}
					if d.Name.IsExported() {
						add(d.Name, name, d.Pos(), d.End())
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								add(s.Name, s.Name.Name, s.Pos(), s.End())
							}
							if st, ok := s.Type.(*ast.StructType); ok {
								for _, f := range st.Fields.List {
									for _, id := range f.Names {
										if id.IsExported() {
											add(id, s.Name.Name+"."+id.Name, f.Pos(), f.End())
										}
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.IsExported() {
									add(id, id.Name, s.Pos(), s.End())
								}
							}
						}
					}
				}
			}
		}
	}

	// References, and the interfaces and module types that non-test code
	// names, so that a method can count as used through an interface.
	used := map[types.Object]bool{}
	// reach marks read every field of each struct that t reaches and,
	// for encoding/json, the JSON methods of each named type it reaches.
	// The walk stops at a type that formats itself: for encoding/json one
	// with MarshalJSON, for fmt one whose method set (the value's, or the
	// pointer's when reached through one) has String, Error or Format.
	// encoding/json skips fields tagged `json:"-"` and unexported fields
	// that are not embedded.
	type walked struct {
		t    types.Type
		json bool
	}
	seen := map[walked]bool{}
	formats := func(t types.Type, json bool) bool {
		if json {
			obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "MarshalJSON")
			return obj != nil
		}
		mset := types.NewMethodSet(t)
		for _, name := range []string{"String", "Error", "Format"} {
			if mset.Lookup(nil, name) != nil {
				return true
			}
		}
		return false
	}
	var reach func(t types.Type, json bool)
	reach = func(t types.Type, json bool) {
		if t == nil || seen[walked{t, json}] {
			return
		}
		seen[walked{t, json}] = true
		switch u := t.(type) {
		case *types.Named:
			if json {
				for _, name := range []string{"MarshalJSON", "UnmarshalJSON"} {
					if obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(u), false, u.Obj().Pkg(), name); obj != nil {
						used[origin(obj)] = true
					}
				}
			}
			if !formats(u, json) {
				reach(u.Underlying(), json)
			}
		case *types.Pointer:
			if !json && formats(u, json) {
				break
			}
			reach(u.Elem(), json)
		case *types.Slice:
			reach(u.Elem(), json)
		case *types.Array:
			reach(u.Elem(), json)
		case *types.Map:
			reach(u.Key(), json)
			reach(u.Elem(), json)
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				f := u.Field(i)
				if json && (!f.Exported() && !f.Embedded() || reflect.StructTag(u.Tag(i)).Get("json") == "-") {
					continue
				}
				used[origin(f)] = true
				reach(f.Type(), json)
			}
		}
	}
	ifaces := map[*types.Interface]bool{}
	named := map[*types.Named]bool{}
	note := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil && pkgs[n.Obj().Pkg().Path()] != nil && n.TypeParams().Len() == n.TypeArgs().Len() {
			named[n] = true
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	// Every type written in the source is in Types; a call converts its
	// arguments to the parameter types of a signature that may not be.
	collect := func(t types.Type) {
		if sig, ok := t.(*types.Signature); ok {
			for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := 0; i < tup.Len(); i++ {
					note(tup.At(i).Type())
				}
			}
		}
		if t != nil {
			note(t)
		}
	}
	for _, c := range pkgs {
		writes := map[token.Pos]bool{} // field selectors and keys that are written
		for _, f := range c.files {
			ast.Inspect(f, func(n ast.Node) bool {
				var targets []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						targets = n.Lhs
					}
				case *ast.IncDecStmt:
					targets = []ast.Expr{n.X}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok { // a struct literal's field key
						targets = []ast.Expr{id}
					}
				case *ast.CallExpr:
					if pkg := calleePkg(c.info, n); pkg == "encoding/json" || pkg == "fmt" {
						for _, arg := range n.Args {
							reach(c.info.Types[arg].Type, pkg == "encoding/json")
						}
					}
				}
				for _, e := range targets {
					switch e := e.(type) {
					case *ast.SelectorExpr:
						writes[e.Sel.Pos()] = true
					case *ast.Ident:
						writes[e.Pos()] = true
					}
				}
				return true
			})
		}
		for id, obj := range c.info.Uses {
			collect(obj.Type())
			obj = origin(obj)
			cand := cands[obj]
			if cand == nil || skip[id.Pos()] || (id.Pos() >= cand.from && id.Pos() < cand.to) {
				continue
			}
			if v, ok := obj.(*types.Var); ok && v.IsField() && writes[id.Pos()] {
				continue
			}
			used[obj] = true
		}
		for _, obj := range c.info.Defs {
			if obj != nil {
				collect(obj.Type())
			}
		}
		for _, tv := range c.info.Types {
			collect(tv.Type)
		}
		// The program type-checks, so each type argument has every method
		// its constraint names.
		for id, inst := range c.info.Instances {
			var tparams *types.TypeParamList
			switch obj := c.info.Uses[id].(type) {
			case *types.TypeName:
				tparams = obj.Type().(*types.Named).TypeParams()
			case *types.Func:
				tparams = obj.Type().(*types.Signature).TypeParams()
			}
			for i := 0; i < tparams.Len() && i < inst.TypeArgs.Len(); i++ {
				it, _ := tparams.At(i).Constraint().Underlying().(*types.Interface)
				for j := 0; it != nil && j < it.NumMethods(); j++ {
					m := it.Method(j)
					obj, _, _ := types.LookupFieldOrMethod(inst.TypeArgs.At(i), true, m.Pkg(), m.Name())
					if obj != nil {
						used[origin(obj)] = true
					}
				}
			}
		}
	}
	for t := range named {
		if _, ok := t.Underlying().(*types.Interface); ok {
			continue
		}
		ptr := types.NewPointer(t)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		has := map[string]bool{}
		for i := 0; i < mset.Len(); i++ {
			has[mset.At(i).Obj().Name()] = true
		}
	next:
		for it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if !has[it.Method(i).Name()] {
					continue next
				}
			}
			if !types.Satisfies(t, it) && !types.Satisfies(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				if obj != nil {
					used[origin(obj)] = true
				}
			}
		}
	}

	type offender struct {
		file string
		line int
		name string
	}
	var out []offender
	flagged := map[string]bool{}
	for obj, cand := range cands {
		if used[obj] {
			continue
		}
		if _, ok := allow[cand.name]; ok {
			flagged[cand.name] = true
			continue
		}
		p := fset.Position(cand.pos)
		rel, _ := filepath.Rel(root, p.Filename)
		out = append(out, offender{filepath.ToSlash(rel), p.Line, cand.name})
	}
	slices.SortFunc(out, func(a, b offender) int { return cmp.Or(strings.Compare(a.file, b.file), a.line-b.line) })
	var report []string
	for _, o := range out {
		report = append(report, fmt.Sprintf("%s:%d %s", o.file, o.line, o.name))
	}
	var stale []string
	for name := range allow {
		if !flagged[name] {
			stale = append(stale, "allowlist entry "+name+" has a non-test caller or no longer exists")
		}
	}
	sort.Strings(stale)
	return append(report, stale...), nil
}

// calleePkg returns the import path of the package that declares the
// function or method call calls, or "" for a call of a func value,
// builtin or conversion.
func calleePkg(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() != nil {
		return fn.Pkg().Path()
	}
	return ""
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an object of an instantiated generic type or function back
// to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(b); m != nil {
		return string(m[1]), nil
	}
	return "", fmt.Errorf("%s: no module line (%v)", gomod, err)
}
