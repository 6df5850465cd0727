package ttsv_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports lists the exported funcs and methods under internal/ that
// no non-test Go file of the module or of bench/ names, each with why it
// stays. TestNoTestOnlyExports keeps the scan equal to this list, so code
// that only tests reach cannot come back unnoticed: delete it, move it into
// a _test.go file, or add it here with its reason.
var testOnlyExports = map[string]string{
	"repro/internal/fem.BuildCartProblem":             "test reference: the 3-D block that validates the axisymmetric reduction",
	"repro/internal/fem.DefaultCartResolution":        "test reference: the 3-D block's mesh",
	"repro/internal/fem.ConvergenceError.Unwrap":      "interface method: errors.Is and errors.As unwrap through it",
	"repro/internal/flight.Group.Waiters":             "test accessor: the flight, sweep and serve tests wait until every caller has joined an execution before releasing it",
	"repro/internal/materials.Material.UnmarshalJSON": "interface method: json.Unmarshaler",
	"repro/internal/sparse.Stencil.MulVec":            "test reference: the sequential matvec that sparse, mg and fem tests check kernels against",
	"repro/internal/stack.Plane.Height":               "reached through the ttsv.Plane alias",
	"repro/internal/stack.Stack.WithViaCount":         "reached through the ttsv.Stack alias: the cluster transform of the package doc",
	"repro/internal/sweep.Batch.Run":                  "reached through the ttsv.Batch alias",
}

// TestNoTestOnlyExports scans every non-test Go file in the repository,
// bench/ included, and lists the exported funcs and methods declared under
// internal/ that none of them references by name. A package-level func
// counts as referenced when some file names it as pkg.Name through an
// import of its package, or as Name inside its own package; a method counts
// when any selector anywhere uses its name. The scan is syntactic (go/parser
// and go/ast only), so it over-counts references rather than missing one.
func TestNoTestOnlyExports(t *testing.T) {
	const module = "repro"
	type decl struct{ key, pkg, name string }
	var decls []decl
	funcRefs := map[string]bool{} // "import/path.Name"
	methodRefs := map[string]bool{}
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkg := module
		if dir != "." {
			pkg = path.Join(module, dir)
		}
		imports := map[string]string{} // local name -> import path
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		for _, dcl := range f.Decls {
			fd, ok := dcl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			if fd.Recv == nil {
				decls = append(decls, decl{pkg + "." + fd.Name.Name, pkg, fd.Name.Name})
			} else {
				decls = append(decls, decl{pkg + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name, "", fd.Name.Name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// A declaration's own name is not a reference; walk the rest.
				if n.Recv != nil {
					ast.Inspect(n.Recv, visitRefs(pkg, imports, funcRefs, methodRefs))
				}
				ast.Inspect(n.Type, visitRefs(pkg, imports, funcRefs, methodRefs))
				if n.Body != nil {
					ast.Inspect(n.Body, visitRefs(pkg, imports, funcRefs, methodRefs))
				}
				return false
			}
			return visitRefs(pkg, imports, funcRefs, methodRefs)(n)
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unreferenced []string
	for _, d := range decls {
		if d.pkg != "" && !funcRefs[d.pkg+"."+d.name] || d.pkg == "" && !methodRefs[d.name] {
			unreferenced = append(unreferenced, d.key)
		}
	}
	sort.Strings(unreferenced)
	for _, k := range unreferenced {
		if _, ok := testOnlyExports[k]; !ok {
			t.Errorf("%s: exported, but no non-test file references it; delete it, move it into a _test.go file, or list it in testOnlyExports with its reason", k)
		}
	}
	for k := range testOnlyExports {
		if i := sort.SearchStrings(unreferenced, k); i == len(unreferenced) || unreferenced[i] != k {
			t.Errorf("%s: listed in testOnlyExports, but it is gone or now referenced; drop the entry", k)
		}
	}
}

// visitRefs records, for one file, every pkg.Name selector through an
// import, every bare identifier (a same-package func reference) and every
// selector's name (a possible method reference).
func visitRefs(pkg string, imports map[string]string, funcRefs, methodRefs map[string]bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if ip, ok := imports[x.Name]; ok {
					funcRefs[ip+"."+n.Sel.Name] = true
					return false
				}
			}
			methodRefs[n.Sel.Name] = true
			ast.Inspect(n.X, visitRefs(pkg, imports, funcRefs, methodRefs))
			return false
		case *ast.Ident:
			funcRefs[pkg+"."+n.Name] = true
		}
		return true
	}
}

// recvName is the receiver's base type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
