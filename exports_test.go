package ttsv_test

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
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports lists the exported funcs and methods under internal/ that
// no non-test Go file of the module or of bench/ uses, each with why it
// stays. TestNoTestOnlyExports keeps the scan equal to this list, so code
// that only tests reach cannot come back unnoticed: delete it, move it into
// a _test.go file, or add it here with its reason.
var testOnlyExports = map[string]string{
	"repro/internal/canon.String":                     "the readable encoding: the key goldens pin it beside canon.Sum's digest",
	"repro/internal/serve.Server.ServeHTTP":           "interface method: http.Handler, through which http.Server serves ttsvd",
	"repro/internal/sweep.Cache.Counters":             "reached through the ttsv.SweepCache alias: a caller's view of what its cache saved",
	"repro/internal/sweep.Cache.Len":                  "reached through the ttsv.SweepCache alias",
	"repro/internal/fem.BuildCartProblem":             "test reference: the 3-D block that validates the axisymmetric reduction",
	"repro/internal/fem.DefaultCartResolution":        "test reference: the 3-D block's mesh",
	"repro/internal/fem.ConvergenceError.Unwrap":      "interface method: errors.Is and errors.As unwrap through it",
	"repro/internal/flight.Group.Waiters":             "test accessor: the flight, sweep and serve tests wait until every caller has joined an execution before releasing it",
	"repro/internal/materials.Material.UnmarshalJSON": "interface method: json.Unmarshaler",
	"repro/internal/mesh.Uniform":                     "test reference: the uniform edges of fem's slab, 3-D and golden test problems, whose arithmetic Line's uniform intervals keep bit for bit",
	"repro/internal/sparse.Stencil.MulVec":            "test reference: the sequential matvec that sparse, mg and fem tests check kernels against",
	"repro/internal/stack.Plane.Height":               "reached through the ttsv.Plane alias",
	"repro/internal/stack.Stack.WithViaCount":         "reached through the ttsv.Stack alias: the cluster transform of the package doc",
}

// TestNoTestOnlyExports type-checks every non-test Go package of the module
// and of bench/ (for this host's GOOS and GOARCH) and lists the exported
// funcs and methods declared under internal/ that none of them uses, by
// go/types' resolution of each identifier (types.Info.Uses). A method also
// counts as used when a call through an interface method reaches it (some
// non-test file uses that interface method, and the method's type
// implements the interface), and a String method when a value of its type
// is an argument of a fmt call.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	dirs := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Join(".", dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		dirs[ip] = append(dirs[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	std, err := stdImporter(fset, dirs)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	imp := &moduleImporter{fset: fset, files: dirs, info: info, std: std, pkgs: map[string]*types.Package{}}
	for ip := range dirs {
		if _, err := imp.Import(ip); err != nil {
			t.Fatal(err)
		}
	}

	used := map[*types.Func]bool{}
	ifaceMethods := map[*types.Func]bool{}
	for _, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		used[fn] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceMethods[fn] = true
		}
	}
	// fmt calls String on the arguments it formats.
	for _, fs := range dirs {
		for _, f := range fs {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if obj := info.Uses[sel.Sel]; obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" {
					return true
				}
				for _, arg := range call.Args {
					if fn, ok := lookupMethod(info.Types[arg].Type, "String"); ok {
						used[fn.Origin()] = true
					}
				}
				return true
			})
		}
	}
	reached := func(fn *types.Func) bool {
		if used[fn] {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		named := recv.Type()
		if p, ok := named.(*types.Pointer); ok {
			named = p.Elem()
		}
		if n, ok := named.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return false // Implements is unspecified for a generic type
		}
		for im := range ifaceMethods {
			if im.Name() != fn.Name() {
				continue
			}
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}

	var unreferenced []string
	for id, obj := range info.Defs {
		fn, ok := obj.(*types.Func)
		if !ok || !id.IsExported() || !strings.HasPrefix(fn.Pkg().Path(), "repro/internal/") || reached(fn) {
			continue
		}
		key := fn.Pkg().Path() + "." + fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if types.IsInterface(recv.Type()) {
				continue // an interface's method set, not a declaration
			}
			key = fn.Pkg().Path() + "." + recvName(recv.Type()) + "." + fn.Name()
		}
		unreferenced = append(unreferenced, key)
	}
	sort.Strings(unreferenced)
	for _, k := range unreferenced {
		if _, ok := testOnlyExports[k]; !ok {
			t.Errorf("%s: exported, but no non-test file uses it; delete it, move it into a _test.go file, or list it in testOnlyExports with its reason", k)
		}
	}
	for k := range testOnlyExports {
		if i := sort.SearchStrings(unreferenced, k); i == len(unreferenced) || unreferenced[i] != k {
			t.Errorf("%s: listed in testOnlyExports, but it is gone or now used; drop the entry", k)
		}
	}
}

// tracerFields lists the exported struct fields of type *obs.Tracer under
// internal/ that stay, each with why. A tracer rides the context
// (obs.ContextWithTracer), where every span finds it; a field beside it is
// a second path that obs.StartSpan ignores once the context carries a span.
// TestNoTracerFields keeps the scan equal to this list.
var tracerFields = map[string]string{
	"repro/internal/serve.Config.Trace": "ttsvd's deployment setting: the service puts it into the context of every request it executes",
}

// TestNoTracerFields parses every non-test Go file under internal/ and
// lists the exported fields of type *obs.Tracer in its struct types,
// anonymous structs nested in a named type included.
func TestNoTracerFields(t *testing.T) {
	const obsPath = "repro/internal/obs"
	fset := token.NewFileSet()
	found := map[string]bool{}
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		// isTracer reports whether a field type spells *obs.Tracer in f.
		isTracer := func(e ast.Expr) bool {
			star, ok := e.(*ast.StarExpr)
			if !ok {
				return false
			}
			if id, ok := star.X.(*ast.Ident); ok {
				return ip == obsPath && id.Name == "Tracer"
			}
			sel, ok := star.X.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Tracer" {
				return false
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return false
			}
			for _, im := range f.Imports {
				if v, _ := strconv.Unquote(im.Path.Value); v == obsPath {
					name := path.Base(obsPath)
					if im.Name != nil {
						name = im.Name.Name
					}
					return pkg.Name == name
				}
			}
			return false
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				ast.Inspect(ts.Type, func(n ast.Node) bool {
					st, ok := n.(*ast.StructType)
					if !ok {
						return true
					}
					for _, field := range st.Fields.List {
						if !isTracer(field.Type) {
							continue
						}
						names := []string{"Tracer"} // an embedded *obs.Tracer
						if len(field.Names) > 0 {
							names = names[:0]
							for _, id := range field.Names {
								names = append(names, id.Name)
							}
						}
						for _, name := range names {
							if ast.IsExported(name) {
								found[ip+"."+ts.Name.Name+"."+name] = true
							}
						}
					}
					return true
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := range found {
		if _, ok := tracerFields[k]; !ok {
			t.Errorf("%s: exported *obs.Tracer field; take the tracer from the context (obs.ContextWithTracer) instead, or list it in tracerFields with its reason", k)
		}
	}
	for k := range tracerFields {
		if !found[k] {
			t.Errorf("%s: listed in tracerFields, but it is gone; drop the entry", k)
		}
	}
}

// moduleImporter type-checks the module's packages (and bench/'s, whose
// module is repro/bench) from their parsed files into one types.Info, each
// once, and imports the standard library from export data.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	std   types.Importer
	pkgs  map[string]*types.Package
}

func (m *moduleImporter) Import(ip string) (*types.Package, error) {
	if p, ok := m.pkgs[ip]; ok {
		return p, nil
	}
	files, ok := m.files[ip]
	if !ok {
		return m.std.Import(ip)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(ip, m.fset, files, m.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", ip, err)
	}
	m.pkgs[ip] = p
	return p, nil
}

// stdImporter imports the packages that files import from outside the
// module from their compiled export data, located by one go list run.
func stdImporter(fset *token.FileSet, files map[string][]*ast.File) (types.Importer, error) {
	args := []string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}
	seen := map[string]bool{}
	for _, fs := range files {
		for _, f := range fs {
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				if _, ours := files[ip]; !ours && !seen[ip] {
					seen[ip] = true
					args = append(args, ip)
				}
			}
		}
	}
	out, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		ip, file, _ := strings.Cut(line, "=")
		exports[ip] = file
	}
	return importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
		file, ok := exports[ip]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", ip)
		}
		return os.Open(file)
	}), nil
}

// lookupMethod returns t's method name, if t has one.
func lookupMethod(t types.Type, name string) (*types.Func, bool) {
	if t == nil {
		return nil, false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	fn, ok := obj.(*types.Func)
	return fn, ok
}

// recvName is the receiver's base type name, without pointer or type
// arguments.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return "?"
}
