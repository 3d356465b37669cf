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

// TestOneCausalPath keeps the obs.Chain cursor the only way the data path
// records a happens-before event. Outside internal/obs no struct holds a
// *obs.CritRec beside the chains (a result carrier is listed with its
// reason), no file calls the recorder's raw CritRec.Ev (the only
// Ev taking a parent id and a host: seven arguments) or CritRec.EvJoin,
// and no mbuf header carries a causal event id.
func TestOneCausalPath(t *testing.T) {
	const obsPath = "repro/internal/obs"
	allowed := map[string]string{
		"internal/load/report.go:Crit": "Report hands the finished recorder to the critpath analyzer; nothing records through it",
	}
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path == "bench" || path == "internal/obs" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == obsPath {
				local = "obs"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					star, ok := field.Type.(*ast.StarExpr)
					if !ok {
						continue
					}
					sel, ok := star.X.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "CritRec" {
						continue
					}
					if x, ok := sel.X.(*ast.Ident); !ok || local == "" || x.Name != local {
						continue
					}
					for _, name := range field.Names {
						key := path + ":" + name.Name
						seen[key] = true
						if allowed[key] == "" {
							t.Errorf("%s: field %s of type *%s.CritRec: record through an obs.Chain",
								fset.Position(name.Pos()), name.Name, local)
						}
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if ok && (sel.Sel.Name == "EvJoin" || sel.Sel.Name == "Ev" && len(n.Args) == 7) {
					t.Errorf("%s: raw CritRec.%s call: record through an obs.Chain", fset.Position(n.Pos()), sel.Sel.Name)
				}
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || path != "internal/mbuf/mbuf.go" || n.Name.Name != "Hdr" {
					return true
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if name.Name == "CritEv" {
							t.Errorf("%s: mbuf.Hdr carries a causal event id: the connection's chains hold it",
								fset.Position(name.Pos()))
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range allowed {
		if !seen[key] {
			t.Errorf("allowlist entry %s matches no field: delete it", key)
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

// TestOneFreeListPrimitive keeps internal/pool the only free list in the
// simulator. Every list there has a per-instance check mode that the
// ownership harness (the TestPoisoned…ChangeNothing tests) turns on for a
// whole testbed, so a hand-rolled list — a slice field named free…, a
// sync.Pool, or a package-level switch to poison one — would escape the
// harness, and a package-level switch is state that testbeds run side by
// side in one process would share.
func TestOneFreeListPrimitive(t *testing.T) {
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		inPool := filepath.ToSlash(filepath.Dir(path)) == "internal/pool"
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				boolVar := false
				if id, ok := vs.Type.(*ast.Ident); ok && id.Name == "bool" {
					boolVar = true
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						if id, ok := vs.Values[i].(*ast.Ident); ok && (id.Name == "true" || id.Name == "false") {
							boolVar = true
						}
					}
					if boolVar || strings.Contains(strings.ToLower(name.Name), "poison") {
						t.Errorf("%s: package-level switch %s: make it a field of the instance it configures",
							fset.Position(name.Pos()), name.Name)
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && id.Name == "sync" && n.Sel.Name == "Pool" {
					t.Errorf("%s: sync.Pool in the simulator: use a per-testbed pool.List", fset.Position(n.Pos()))
				}
			case *ast.Field:
				if _, ok := n.Type.(*ast.ArrayType); !ok || inPool {
					return true
				}
				for _, name := range n.Names {
					if strings.Contains(strings.ToLower(name.Name), "free") {
						t.Errorf("%s: slice field %s looks like a free list: use pool.List or pool.Bytes",
							fset.Position(name.Pos()), name.Name)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
