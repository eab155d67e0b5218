package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestRepoLintsClean is the committed baseline the ISSUE requires: the
// full analyzer suite over the whole module with zero unsuppressed
// findings. It is also the seeded-regression net — reverting the
// constant-time fingerprint fix in internal/remote/cluster.go, or
// re-introducing a blocking send under a held mutex in internal/sched,
// turns up here (and in make lint / make ci) immediately.
func TestRepoLintsClean(t *testing.T) {
	root := moduleRoot(t)
	pkgs, err := LoadTree(root, Names(All()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages from %s; the tree walk is broken", len(pkgs), root)
	}
	diags := Run(pkgs, All())
	for _, d := range Unsuppressed(diags) {
		t.Errorf("%s", d)
	}
	// Every suppression in the repo must carry its reason through to the
	// diagnostic — an empty reason here means the annotation plumbing
	// regressed.
	for _, d := range diags {
		if d.Suppressed && d.Reason == "" {
			t.Errorf("%s: suppressed without a reason", d)
		}
	}
}

// TestSeedFindingStaysFixed pins the PR's seed finding: the cluster
// gateway's provision-fingerprint and boot-nonce checks must go through
// the constant-time compare, not bytes.Equal. The whole-repo check
// above already fails on a revert; this test names the exact invariant
// so the failure reads as "the cluster.go constant-time fix was
// reverted" rather than a generic lint error.
func TestSeedFindingStaysFixed(t *testing.T) {
	root := moduleRoot(t)
	dir := filepath.Join(root, "internal", "remote")
	pkg, err := LoadDir(dir, Names(All()))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{CTCompare})
	for _, d := range diags {
		if !d.Suppressed {
			t.Errorf("internal/remote regressed to a non-constant-time compare: %s", d)
		}
	}
	// The secure path must actually be present, not merely unflagged.
	src, err := os.ReadFile(filepath.Join(dir, "cluster.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cryptoutil.ConstantTimeEqual(fp[:], provFP)",
		"cryptoutil.ConstantTimeEqual(in.Nonce, bootNonce)",
	} {
		if !bytes.Contains(src, []byte(want)) {
			t.Errorf("cluster.go no longer uses the secure compare %q", want)
		}
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// TestNoTestOnlyExports fails on an exported function or method under
// internal/ that only its own package's tests reach: such a name is either
// a call the served path is missing or dead code kept alive by its test.
// A name counts as reached when a non-test file anywhere in the tree
// (bench/, cmd/ and examples/ included) refers to it, when another
// package's tests use it, or when a method of that name belongs to an
// interface. Methods match by name alone, so the scan can only over-count
// reach: what it reports is real. It needs the whole tree at once, which is
// why it is a test and not a per-package salus-vet analyzer.
func TestNoTestOnlyExports(t *testing.T) {
	root := moduleRoot(t)
	pkgs, err := LoadTree(root, Names(All()))
	if err != nil {
		t.Fatal(err)
	}
	importPath := func(p *Package) string {
		rel, err := filepath.Rel(root, p.Dir)
		if err != nil {
			t.Fatal(err)
		}
		return "salus/" + filepath.ToSlash(rel)
	}

	// users maps a package function ("path.Name") or a method name to the
	// places that refer to it: "" for a non-test file, else the directory
	// of the test file.
	funcUsers := map[string]map[string]bool{}
	methodUsers := map[string]map[string]bool{}
	interfaceMethods := map[string]bool{
		// Methods of the standard-library interfaces the tree implements.
		"Error": true, "String": true, "Unwrap": true, "Is": true,
		"Read": true, "Write": true, "Close": true,
		"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true, // heap.Interface
		"Import":      true, // types.Importer
		"MarshalJSON": true, "UnmarshalJSON": true,
		"MarshalBinary": true, "UnmarshalBinary": true,
	}
	use := func(m map[string]map[string]bool, key, from string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][from] = true
	}
	type export struct {
		key, name, dir string // key indexes the users maps
		method         bool
		pos            token.Position
	}
	var exports []export
	for _, p := range pkgs {
		path := importPath(p)
		internal := strings.HasPrefix(path, "salus/internal/")
		for _, f := range p.Files {
			from := ""
			if f.IsTest {
				from = p.Dir
			}
			skip := map[*ast.Ident]bool{}
			for _, d := range f.AST.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				skip[fd.Name] = true
				if f.IsTest || !internal || !fd.Name.IsExported() {
					continue
				}
				e := export{key: path + "." + fd.Name.Name, dir: p.Dir, pos: p.Fset.Position(fd.Pos())}
				e.name = e.key
				if fd.Recv != nil {
					e.key, e.method = fd.Name.Name, true
					e.name = path + "." + recvType(fd.Recv.List[0].Type) + "." + e.key
				}
				exports = append(exports, e)
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							interfaceMethods[name.Name] = true
						}
					}
				case *ast.SelectorExpr:
					skip[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if ip := f.ImportPath(x.Name); ip != "" {
							use(funcUsers, ip+"."+n.Sel.Name, from)
							break
						}
					}
					use(methodUsers, n.Sel.Name, from)
				case *ast.Ident:
					if !skip[n] {
						use(funcUsers, path+"."+n.Name, from)
					}
				}
				return true
			})
		}
	}

	var found []string
	for _, e := range exports {
		users := funcUsers[e.key]
		if e.method {
			if interfaceMethods[e.key] {
				continue
			}
			users = methodUsers[e.key]
		}
		reached := false
		for from := range users {
			if from != e.dir {
				reached = true
			}
		}
		if !reached {
			found = append(found, fmt.Sprintf("%s: %s", e.pos, e.name))
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s is exported but only its own package's tests reach it: call it, delete it, or move it into a _test.go file", f)
	}
}

// TestMakefileRunListsNameDeclaredTests fails when a test named in one of
// the Makefile's `-run '^(A|B)$$' ./internal/<pkg>` lists (tier1's
// twenty-fold race sweeps) is not declared as func Name(t *testing.T) in
// that package's test files. go test runs a pattern that matches nothing
// without complaint, so a renamed test would leave its sweep silently.
func TestMakefileRunListsNameDeclaredTests(t *testing.T) {
	root := moduleRoot(t)
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	lists := regexp.MustCompile(`-run '\^\(([^)]*)\)\$\$' \./(internal/[\w/]+)`).FindAllStringSubmatch(string(mk), -1)
	if len(lists) == 0 {
		t.Fatal("the Makefile has no -run '^(...)$$' list: the parse is blind")
	}
	for _, l := range lists {
		declared := testFuncs(t, filepath.Join(root, l[2]))
		for _, name := range strings.Split(l[1], "|") {
			if !declared[name] {
				t.Errorf("the Makefile runs %s in ./%s, whose test files declare no func %s(t *testing.T)", name, l[2], name)
			}
		}
	}
}

// testFuncs returns the names of the func Name(t *testing.T) declarations
// in dir's test files.
func testFuncs(t *testing.T, dir string) map[string]bool {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no test files in %s (%v)", dir, err)
	}
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || len(fd.Type.Params.List) != 1 {
				continue
			}
			if star, ok := fd.Type.Params.List[0].Type.(*ast.StarExpr); ok {
				if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "T" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "testing" {
						declared[fd.Name.Name] = true
					}
				}
			}
		}
	}
	return declared
}

// recvType names a method receiver's type: "T" for T, *T and T[P].
func recvType(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
