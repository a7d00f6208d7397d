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
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported identifiers under internal/ that
// may stay without a non-test caller (package.Name or
// package.Type.Method), each with the open ROADMAP item or the test that
// needs it. The two engine tests have no rewrite as strong: one reads the
// tail fit with no observability attached, the other compares a
// read-ready report bit for bit with one recorded twice.
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
}

// surfaceExempt are method names that the standard library calls through
// reflection or a dynamic interface check, so no static reference shows.
var surfaceExempt = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalBinary": true, "Int63": true, "Seed": true, "Uint64": true,
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
	got, want := strings.Join(report, "\n"), "internal/lib/lib.go:12 lib.Dead.Err\ninternal/lib/lib.go:38 lib.OnlyTests"
	if got != want {
		t.Fatalf("report:\n%s\nwant:\n%s", got, want)
	}
}

// unusedExports type-checks every non-test package of the module rooted
// at root and reports, as "file:line package.Name" sorted by position,
// each exported identifier declared under internal/ that no non-test
// code references outside its own declaration. Methods resolve by type;
// a method also counts as used when its type satisfies a used interface
// or generic constraint that has it. Interface methods and the names in
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
		for id, obj := range c.info.Uses {
			collect(obj.Type())
			obj = origin(obj)
			cand := cands[obj]
			if cand == nil || skip[id.Pos()] || (id.Pos() >= cand.from && id.Pos() < cand.to) {
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
