package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestWorkflowRunsCITargets holds the GitHub workflow to the Makefile: its
// steps are exactly the prerequisites of `ci:`, in order, so a check
// cannot live in one and be missing from the other. Beside the race run,
// ci must run the allocation budgets without the detector, since under it
// they skip.
func TestWorkflowRunsCITargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^ci:(.*)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile has no ci: target")
	}
	want := strings.Fields(string(m[1]))
	for _, step := range []string{"race", "allocs"} {
		if !slices.Contains(want, step) {
			t.Errorf("ci: targets %v lack %s", want, step)
		}
	}
	if !regexp.MustCompile(`(?m)^allocs:\n\t\$\(GO\) test -count 1 -run 'Alloc\|Budget' \./\.\.\.$`).Match(mk) {
		t.Error("the allocs target no longer runs the Alloc|Budget tests across ./... without -race")
	}

	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, run := range regexp.MustCompile(`(?m)^\s*run:\s*(.*)$`).FindAllSubmatch(yml, -1) {
		got = append(got, strings.TrimPrefix(string(run[1]), "make "))
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("workflow steps %v\n   != ci: targets %v", got, want)
	}
}

// TestOnePacketRecorderHandle keeps the data path's carriers at one
// per-packet recorder handle, the obs.Span: mbuf and tcpip do not import
// the ledger at all, and no struct in them, hippi or cab holds a ledger
// type other than the per-host *ledger.Hook. A second handle threaded
// beside the span would have to break this test first.
func TestOnePacketRecorderHandle(t *testing.T) {
	const ledgerPath = "repro/internal/obs/ledger"
	noImport := map[string]bool{"internal/mbuf": true, "internal/tcpip": true}
	for _, dir := range []string{"internal/mbuf", "internal/tcpip", "internal/hippi", "internal/cab"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			local := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == ledgerPath {
					local = "ledger"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				continue
			}
			if noImport[dir] {
				t.Errorf("%s imports %s: the packet's span is its only recorder handle", path, ledgerPath)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					ast.Inspect(field.Type, func(n ast.Node) bool {
						sel, ok := n.(*ast.SelectorExpr)
						if ok && sel.Sel.Name != "Hook" {
							if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
								t.Errorf("%s: struct field of type %s.%s: carry the packet's obs.Span instead",
									path, local, sel.Sel.Name)
							}
						}
						return true
					})
				}
				return true
			})
		}
	}
}

// TestNoProcsInCAB keeps the adaptor's engines continuations (DESIGN
// §11): each blocks only at its own top level, so the SDMA and MDMA
// engines run as event-loop steps, and no non-test file in internal/cab
// spawns a process.
func TestNoProcsInCAB(t *testing.T) {
	paths, err := filepath.Glob("internal/cab/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Go" {
					t.Errorf("%s: a process in the adaptor model; make it a continuation", fset.Position(call.Pos()))
				}
			}
			return true
		})
	}
}

// TestNoMapOrderInSimulation keeps the simulation deterministic. Go
// randomizes map iteration order, so a `for ... range x.f` over a
// map-typed struct field in a simulation package wakes, frees or
// schedules things in a different order on every run unless its result
// cannot depend on the order. Each such loop must be listed here, by
// file and function, with the reason it is order-free; anything else
// ranges over a sorted copy instead.
func TestNoMapOrderInSimulation(t *testing.T) {
	allowed := map[string]string{
		"internal/sim/engine.go:Engine.LiveProcNames":     "collect-then-sort",
		"internal/sim/engine.go:Engine.KillAll":           "teardown after Run: no simulated time follows",
		"internal/tcpip/tcpip.go:Stack.portInUse":         "membership test",
		"internal/tcpip/tcpip.go:Stack.Conns":             "collect-then-sort",
		"internal/tcpip/tcpip.go:Stack.udpSocks":          "collect-then-sort",
		"internal/cab/cab.go:CAB.liveByAlloc":             "collect-then-sort",
		"internal/obs/netobs/analyze.go:Recorder.Analyze": "r.flows is the registration-order slice; the map of that name is a wire's",
		"internal/obs/netobs/netobs.go:Recorder.Snapshot": "r.flows is the registration-order slice; w.flows keys are collected then sorted",
		"internal/obs/prof/prof.go:Node.Total":            "sum",
		"internal/obs/prof/prof.go:Profiler.Folded":       "collect-then-sort",
		"internal/obs/prof/prof.go:Profiler.Snapshot":     "collect-then-sort",
	}
	dirs := []string{"sim", "kern", "tcpip", "socket", "cab", "cabdrv", "hippi", "mbuf", "fabric", "fault", "load"}
	err := filepath.WalkDir("internal/obs", func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			dirs = append(dirs, strings.TrimPrefix(path, "internal/"))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, dir := range dirs {
		paths, err := filepath.Glob(filepath.Join("internal", dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		var names []string
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files, names = append(files, f), append(names, filepath.ToSlash(path))
		}
		fields := mapFields(files)
		for i, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := names[i] + ":" + funcName(fd)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					sel, ok := rs.X.(*ast.SelectorExpr)
					if !ok || !fields[sel.Sel.Name] {
						return true
					}
					seen[key] = true
					if allowed[key] == "" {
						t.Errorf("%s ranges over map field .%s: iterate a sorted copy, or allowlist the loop with why its order cannot matter",
							key, sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
	for key := range allowed {
		if !seen[key] {
			t.Errorf("allowlist entry %s matches no map range: delete it", key)
		}
	}
}

// funcName is fd's name, qualified by its receiver's type for a method.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok {
		typ = idx.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// mapFields returns the names of the package's struct fields whose type is
// a map, directly or through a named map type declared in the package.
func mapFields(files []*ast.File) map[string]bool {
	mapTypes := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if _, ok := ts.Type.(*ast.MapType); ok {
					mapTypes[ts.Name.Name] = true
				}
			}
			return true
		})
	}
	fields := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				isMap := false
				switch typ := field.Type.(type) {
				case *ast.MapType:
					isMap = true
				case *ast.Ident:
					isMap = mapTypes[typ.Name]
				}
				for _, name := range field.Names {
					if isMap {
						fields[name.Name] = true
					}
				}
			}
			return true
		})
	}
	return fields
}
