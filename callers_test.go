package rair

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"testing"
)

// uncalledKeeps are the declarations outside test files that no non-test
// code reaches but that stay anyway, each with its reason. Nothing else may
// join them without one: a name only tests call is surface to delete.
var uncalledKeeps = map[string]string{
	"rair/internal/topology.Mesh.MinimalDirs":     "the routing test's independent reference for Route",
	"rair/internal/router.Router.DebugDropCredit": "the invariant checker's seeded bug",
	"rair/internal/stats.Dist.Merge":              "cross-seed pooling, kept for ROADMAP 3(c) and 6",
	"rair/internal/invariant.Checker.Routers":     "what the mesh lockstep compares with the reference routers and corrupts in TestSeededDesyncDiverges",
	"rair/internal/invariant.Checker.NIs":         "the NIs TestSeededDesyncDiverges corrupts on the mesh",
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goList lists the packages matched by ./... in dir and all their
// dependencies, dependencies first, with the export data of each.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// TestEveryFuncHasACaller fails on any func, method or interface method
// declared outside test files of this module that no non-test code of the
// module or of the benchmark module in bench/ reaches. A declaration is
// reached when non-test code references it, when it implements a method of
// a reached interface (every interface of the standard library counts as
// reached), or when it is main, init or an exported name of package rair.
func TestEveryFuncHasACaller(t *testing.T) {
	own := map[string]bool{}
	var listed []listedPackage
	seen := map[string]bool{}
	for _, dir := range []string{".", "bench"} {
		for _, p := range goList(t, dir) {
			if dir == "." && !p.Standard {
				own[p.ImportPath] = true
			}
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				listed = append(listed, p)
			}
		}
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range listed {
		exports[p.ImportPath] = p.Export
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	var std []*types.Package
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		p, err := gc.Import(path)
		if err == nil {
			std = append(std, p)
		}
		return p, err
	})

	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	var files []*ast.File
	for _, p := range listed {
		if p.Standard {
			continue
		}
		var pkgFiles []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			pkgFiles = append(pkgFiles, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, pkgFiles, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		if own[p.ImportPath] {
			files = append(files, pkgFiles...)
		}
	}

	reached := map[*types.Func]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			reached[fn.Origin()] = true
		}
	}

	// Interfaces and the named types that may implement them: every
	// non-generic named type of the checked packages, and the interfaces of
	// the standard library the checked packages import, directly or not.
	type named struct {
		t   *types.Named
		std bool
	}
	var all []named
	addScope := func(pkg *types.Package, isStd bool) {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if nt, ok := tn.Type().(*types.Named); ok && nt.TypeParams().Len() == 0 {
					all = append(all, named{nt, isStd})
				}
			}
		}
	}
	for _, pkg := range checked {
		addScope(pkg, false)
	}
	stdSeen := map[*types.Package]bool{}
	for len(std) > 0 {
		pkg := std[len(std)-1]
		std = std[:len(std)-1]
		if stdSeen[pkg] {
			continue
		}
		stdSeen[pkg] = true
		addScope(pkg, true)
		std = append(std, pkg.Imports()...)
	}
	all = append(all, named{types.Universe.Lookup("error").Type().(*types.Named), true})

	// A method implementing a reached interface method is reached; repeat
	// until no interface gains a reached method.
	for changed := true; changed; {
		changed = false
		for _, iface := range all {
			it, ok := iface.t.Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for _, impl := range all {
				if impl.std || impl.t == iface.t {
					continue
				}
				var recv types.Type = impl.t
				if !types.Implements(recv, it) {
					if _, isIface := impl.t.Underlying().(*types.Interface); isIface {
						continue
					}
					if recv = types.NewPointer(impl.t); !types.Implements(recv, it) {
						continue
					}
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if !iface.std && !reached[m] {
						continue
					}
					obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
					if fn, ok := obj.(*types.Func); ok && !reached[fn] {
						reached[fn] = true
						changed = true
					}
				}
			}
		}
	}

	// Every declaration in the module's own non-test files.
	unused := map[string]bool{}
	for key := range uncalledKeeps {
		unused[key] = true
	}
	var missing []string
	report := func(fn *types.Func, key string) {
		if reached[fn] {
			return
		}
		if _, ok := uncalledKeeps[key]; ok {
			delete(unused, key)
			return
		}
		pos := fset.Position(fn.Pos())
		missing = append(missing, fmt.Sprintf("%s (%s:%d)", key, filepath.Base(pos.Filename), pos.Line))
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn := info.Defs[d.Name].(*types.Func)
				pkg := fn.Pkg()
				sig := fn.Type().(*types.Signature)
				switch {
				case d.Name.Name == "init" || d.Name.Name == "_",
					d.Name.Name == "main" && pkg.Name() == "main",
					pkg.Path() == "rair" && fn.Exported():
					continue
				}
				key := pkg.Path() + "." + fn.Name()
				if r := sig.Recv(); r != nil {
					rt := r.Type()
					if p, ok := rt.(*types.Pointer); ok {
						rt = p.Elem()
					}
					key = pkg.Path() + "." + rt.(*types.Named).Obj().Name() + "." + fn.Name()
				}
				report(fn, key)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					it, ok := info.Defs[ts.Name].Type().Underlying().(*types.Interface)
					if !ok {
						continue
					}
					for i := 0; i < it.NumExplicitMethods(); i++ {
						m := it.ExplicitMethod(i)
						if m.Pkg().Path() == "rair" && m.Exported() && ts.Name.IsExported() {
							continue
						}
						report(m, m.Pkg().Path()+"."+ts.Name.Name+"."+m.Name())
					}
				}
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("no non-test code reaches %s: delete it, or call it from non-test code", m)
	}
	stale := make([]string, 0, len(unused))
	for key := range unused {
		stale = append(stale, key)
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("uncalledKeeps lists %s, which is reached or gone: drop it from the list", key)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
