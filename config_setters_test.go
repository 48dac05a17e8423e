package decluster_test

import (
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
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestConfigFieldsHaveSetters holds the rule that every option has a
// setter. It type-checks every Go file in the module (bench/, cmd/,
// examples/ and tests included) and checks every exported field of every
// exported *Config, *Policy or Options struct declared under internal/.
// A field has a setter if either
//   - a keyed composite literal of its type names it, anywhere, the type
//     spelled directly or through an alias (the root facade's); or
//   - an x.Field = assignment sets it in a test file, or in a non-test
//     file outside the declaring package — so a package defaulting its
//     own field does not count.
//
// *http.Client fields are exempt: they are deployment settings. A field
// nothing sets is a constant with a name; inline it.
//
// The same walk holds the options to one rule: every exported With*
// function declared under internal/ or at the root must be called
// somewhere in the module. An option nothing calls is a setter for a
// value nobody sets; delete it.
func TestConfigFieldsHaveSetters(t *testing.T) {
	fset := token.NewFileSet()
	type pkgFiles struct {
		path  string // import path; external test packages end in _test
		files []*ast.File
	}
	pkgs := map[string]*pkgFiles{}
	isTest := map[*ast.File]bool{}
	imports := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("decluster", filepath.ToSlash(filepath.Dir(p)))
		if strings.HasSuffix(f.Name.Name, "_test") {
			ip += "_test"
		}
		if pkgs[ip] == nil {
			pkgs[ip] = &pkgFiles{path: ip}
		}
		pkgs[ip].files = append(pkgs[ip].files, f)
		isTest[f] = strings.HasSuffix(name, "_test.go")
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && !strings.HasPrefix(p, "decluster/bench") {
				imports[p] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Imports come from the export data the go command builds, so only
	// the module's own files are checked from source.
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for p := range imports {
		args = append(args, p)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if p, file, ok := strings.Cut(line, "\t"); ok {
			export[p] = file
		}
	}
	imp := importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		return os.Open(export[p])
	})

	// The census: exported fields of the option structs under internal/,
	// each true unless exempt.
	type field struct{ pkg, typ, name string }
	census := map[field]bool{}
	type function struct{ pkg, name string }
	options := map[function]bool{} // exported With* functions
	for _, pf := range pkgs {
		internal := strings.HasPrefix(pf.path, "decluster/internal/")
		if !internal && pf.path != "decluster" {
			continue
		}
		for _, f := range pf.files {
			if isTest[f] {
				continue
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() && strings.HasPrefix(fd.Name.Name, "With") {
					options[function{pf.path, fd.Name.Name}] = true
				}
				gd, ok := decl.(*ast.GenDecl)
				if !internal || !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					n := ts.Name.Name
					if !ok || !ts.Name.IsExported() || !strings.HasSuffix(n, "Config") && !strings.HasSuffix(n, "Policy") && n != "Options" {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								census[field{pf.path, n, id.Name}] = !isHTTPClient(fl.Type)
							}
						}
					}
				}
			}
		}
	}

	set := map[field]bool{}
	called := map[function]bool{} // package-level functions some file calls
	for _, pf := range pkgs {
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(pf.path, fset, pf.files, info); err != nil {
			t.Fatalf("type-check %s: %v", pf.path, err)
		}
		home := strings.TrimSuffix(pf.path, "_test")
		for _, f := range pf.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if fn, ok := info.Uses[n].(*types.Func); ok && fn.Pkg() != nil && fn.Type().(*types.Signature).Recv() == nil {
						called[function{fn.Pkg().Path(), fn.Name()}] = true
					}
				case *ast.CompositeLit:
					named, ok := deref(info.Types[n].Type).(*types.Named)
					if !ok || named.Obj().Pkg() == nil {
						return true
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								set[field{named.Obj().Pkg().Path(), named.Obj().Name(), id.Name}] = true
							}
						}
					}
				case *ast.AssignStmt:
					if n.Tok != token.ASSIGN {
						return true
					}
					for _, lhs := range n.Lhs {
						sx, ok := lhs.(*ast.SelectorExpr)
						if !ok {
							continue
						}
						if fd, ok := declaringField(info.Selections[sx]); ok && (isTest[f] || fd[0] != home) {
							set[field{fd[0], fd[1], fd[2]}] = true
						}
					}
				}
				return true
			})
		}
	}

	var missing []string
	for fd, checked := range census {
		if checked && !set[fd] {
			missing = append(missing, strings.TrimPrefix(fd.pkg, "decluster/")+"."+fd.typ+"."+fd.name)
		}
	}
	sort.Strings(missing)
	t.Logf("%d exported config fields under internal/, %d without a setter", len(census), len(missing))
	if len(missing) > 0 {
		t.Errorf("%d config fields have no setter; make each a constant:\n\t%s", len(missing), strings.Join(missing, "\n\t"))
	}

	var uncalled []string
	for opt := range options {
		if !called[opt] {
			uncalled = append(uncalled, strings.TrimPrefix(opt.pkg, "decluster/")+"."+opt.name)
		}
	}
	sort.Strings(uncalled)
	t.Logf("%d exported With* functions, %d never called", len(options), len(uncalled))
	if len(uncalled) > 0 {
		t.Errorf("%d options have no caller; delete each:\n\t%s", len(uncalled), strings.Join(uncalled, "\n\t"))
	}
}

// deref strips aliases and one pointer.
func deref(t types.Type) types.Type {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		return types.Unalias(p.Elem())
	}
	return types.Unalias(t)
}

// declaringField names the package, named struct type and field a field
// selection assigns, following promotion through embedded fields.
func declaringField(sel *types.Selection) ([3]string, bool) {
	if sel == nil || sel.Kind() != types.FieldVal {
		return [3]string{}, false
	}
	cur := sel.Recv()
	for i, idx := range sel.Index() {
		named, _ := deref(cur).(*types.Named)
		st, ok := deref(cur).Underlying().(*types.Struct)
		if !ok {
			return [3]string{}, false
		}
		fv := st.Field(idx)
		if i == len(sel.Index())-1 {
			if named == nil || named.Obj().Pkg() == nil {
				return [3]string{}, false
			}
			return [3]string{named.Obj().Pkg().Path(), named.Obj().Name(), fv.Name()}, true
		}
		cur = fv.Type()
	}
	return [3]string{}, false
}

// isHTTPClient reports whether a field's type is *http.Client.
func isHTTPClient(e ast.Expr) bool {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == "http" && sel.Sel.Name == "Client"
}
