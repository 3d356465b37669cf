package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
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
	allowed := map[string]string{}
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

// TestOneRecordLog keeps obs.Log the one bounded record store of the
// recorders: its bound and drop count replace the "append, check the max,
// bump dropped" pairs each recorder used to roll by hand, each growing a
// slice that copied its records on every doubling. No struct in a non-test
// file under internal/obs other than obs.Log declares a field named
// dropped.
func TestOneRecordLog(t *testing.T) {
	err := filepath.WalkDir("internal/obs", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		var logType *ast.StructType
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "Log" && filepath.ToSlash(path) == "internal/obs/log.go" {
					logType = st
				}
			case *ast.StructType:
				if n == logType {
					return true
				}
				for _, field := range n.Fields.List {
					for _, name := range field.Names {
						if name.Name == "dropped" {
							t.Errorf("%s: field dropped: keep the records in an obs.Log, which bounds them and counts the drops",
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

// TestSocketCallsReuseDescriptors keeps a socket system call from building
// its own descriptors: the call's UIO is its tracker's, pointed at each
// call's buffer, and its uiowCABhdrs come from the host's mbuf pool through
// the tracker, which releases them when the call's DMAs are done. A
// mem.UIO{…} or &mbuf.Hdr{…} literal in non-test internal/socket would be
// a per-call descriptor coming back.
func TestSocketCallsReuseDescriptors(t *testing.T) {
	files, err := filepath.Glob("internal/socket/*.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no files in internal/socket")
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if isSelector(n.Type, "mem", "UIO") {
					t.Errorf("%s: mem.UIO{…} in a socket call: point the tracker's UIO at the buffer", fset.Position(n.Pos()))
				}
			case *ast.UnaryExpr:
				if lit, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND && isSelector(lit.Type, "mbuf", "Hdr") {
					t.Errorf("%s: &mbuf.Hdr{…} in a socket call: take it with the tracker's hdr", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
}

// TestOneBufferUIO keeps mem.UIO one buffer: every system call names one,
// so a range of a UIO is one slice of it and every walk over it is one
// step. Non-test internal/mem's UIO has no slice- or array-typed field
// (directly or through a named type) and no Segments method, and no Go
// file in the module declares SegBuf, the room an iovec walk needed.
func TestOneBufferUIO(t *testing.T) {
	dir := filepath.Join("internal", "mem")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	listTypes := map[string]bool{} // mem's named slice and array types
	var uio *ast.StructType
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				switch ty := n.Type.(type) {
				case *ast.ArrayType:
					listTypes[n.Name.Name] = true
				case *ast.StructType:
					if n.Name.Name == "UIO" {
						uio = ty
					}
				}
			case *ast.FuncDecl:
				if funcName(n) == "UIO.Segments" {
					t.Errorf("%s: UIO.Segments: a range of a UIO is Buf.Slice", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
	if uio == nil {
		t.Fatal("internal/mem declares no UIO struct")
	}
	for _, fld := range uio.Fields.List {
		_, list := fld.Type.(*ast.ArrayType)
		if id, ok := fld.Type.(*ast.Ident); ok && listTypes[id.Name] {
			list = true
		}
		if list {
			t.Errorf("%s: UIO holds a list of ranges: a UIO is one Buf", fset.Position(fld.Pos()))
		}
	}
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, spec := range gd.Specs {
					if spec.(*ast.TypeSpec).Name.Name == "SegBuf" {
						t.Errorf("%s: declares SegBuf: a UIO range is one segment", path)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoClosurePerEvent keeps the data path's events from allocating: a
// func literal handed to the engine's After, AfterKind, At or AtKind is a
// closure per scheduled event. The data-path packages bind their callbacks
// once, per object or per connection (the TCP timers are slots that share
// one bound callback), except where listed here, by file and function,
// with why the closure is rare.
func TestNoClosurePerEvent(t *testing.T) {
	allowed := map[string]string{
		"internal/tcpip/ipfrag.go:Stack.armFragTimeout": "the reassembly timeout: once per fragmented datagram",
		"internal/cab/mdma.go:CAB.rxDeliverDirect":      "the netmem-pressure fallback: only when network memory is exhausted",
	}
	schedulers := map[string]bool{"After": true, "AfterKind": true, "At": true, "AtKind": true}
	seen := map[string]bool{}
	for _, dir := range []string{"tcpip", "cab", "cabdrv", "hippi", "kern", "socket", "mbuf"} {
		paths, err := filepath.Glob(filepath.Join("internal", dir, "*.go"))
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
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := filepath.ToSlash(path) + ":" + funcName(fd)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || !schedulers[sel.Sel.Name] {
						return true
					}
					for _, arg := range call.Args {
						if _, ok := arg.(*ast.FuncLit); ok {
							seen[key] = true
							if allowed[key] == "" {
								t.Errorf("%s (%s): a func literal passed to %s is a closure per event; bind the callback once, or allowlist the site with why it is rare",
									fset.Position(arg.Pos()), key, sel.Sel.Name)
							}
						}
					}
					return true
				})
			}
		}
	}
	for key := range allowed {
		if !seen[key] {
			t.Errorf("allowlist entry %s matches no closure: delete it", key)
		}
	}
}

// isSelector reports whether e is the qualified identifier pkg.name.
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
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

// TestOneTouchOracle keeps ledger.AssertCell the one data-touch oracle: it
// reads each flow's expected touches from its stack's Table 1 cells, so a
// hand-coded second copy of the table cannot come back. No non-test file
// under internal/ or cmd/ declares or uses AssertMultiCopy, and none uses
// AssertSingleCopy, the alias kept for the bench module.
func TestOneTouchOracle(t *testing.T) {
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Name.Name == "AssertMultiCopy" {
						t.Errorf("%s: AssertMultiCopy declared: audit with AssertCell", fset.Position(n.Pos()))
					}
				case *ast.SelectorExpr:
					if name := n.Sel.Name; name == "AssertMultiCopy" || name == "AssertSingleCopy" {
						t.Errorf("%s: %s used: audit with AssertCell on the stack mode's cells",
							fset.Position(n.Pos()), name)
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
}

// TestOneRecorderSet keeps core.Testbed.Record the one way a run turns its
// recorders on: a run names the whole set in one core.Recorders value. The
// seven one-recorder Enable methods are forwards kept for the bench module;
// no non-test file under internal/, cmd/ or examples/ calls them.
func TestOneRecorderSet(t *testing.T) {
	forwards := map[string]bool{
		"EnableTelemetry": true, "EnableCritPath": true, "EnableProfiling": true, "EnableLedger": true,
		"EnableNetObs": true, "EnableSeries": true, "EnableEngineObs": true,
	}
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && forwards[sel.Sel.Name] {
					t.Errorf("%s: %s called: name the run's recorders in one core.Recorders and pass it to Record",
						fset.Position(call.Pos()), sel.Sel.Name)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestOneSoakHarness keeps internal/fault/soak one harness: one case type,
// one outcome type and one entry point serve the soak and the recovery
// matrices, the workload shape chosen by the case's fields and one oracle
// rule applied to every case. A second case, outcome or Run* would split
// the oracle again.
func TestOneSoakHarness(t *testing.T) {
	dir := filepath.Join("internal", "fault", "soak")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var cases, outcomes, runs []string
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() && strings.HasPrefix(d.Name.Name, "Run") {
					runs = append(runs, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					switch name := ts.Name.Name; {
					case strings.HasSuffix(name, "Case"):
						cases = append(cases, name)
					case strings.HasSuffix(name, "Outcome"):
						outcomes = append(outcomes, name)
					}
				}
			}
		}
	}
	for _, got := range []struct {
		what  string
		names []string
	}{{"case types", cases}, {"outcome types", outcomes}, {"Run functions", runs}} {
		if len(got.names) != 1 {
			t.Errorf("internal/fault/soak declares %d exported %s %v, want 1: name a workload by the case's fields and run it through the one Run",
				len(got.names), got.what, got.names)
		}
	}
}

// TestOneDescriptorCredit keeps internal/mbuf, the module that owns the
// uiowCABhdr, the one place where bytes leaving an M_UIO descriptor credit
// its owner (mbuf.CreditOwners, mbuf.AbandonOwners, mbuf.AdjFront). A
// transport or driver that walks a chain and calls DMADone on a header's
// Owner itself would be a second copy of that rule.
func TestOneDescriptorCredit(t *testing.T) {
	mbufDir := filepath.Join("internal", "mbuf")
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == mbufDir {
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
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "DMADone" {
					return true
				}
				if owner, ok := sel.X.(*ast.SelectorExpr); ok && owner.Sel.Name == "Owner" {
					t.Errorf("%s: Owner.DMADone called outside internal/mbuf: credit the chain with mbuf.CreditOwners or mbuf.AbandonOwners",
						fset.Position(call.Pos()))
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRegistryOnlyReads keeps every count a plain field its owner always
// increments (DESIGN §6): the registry reads counts through Func and
// levels through Gauge, and hands out nothing a caller counts into. No
// type that a Registry method returns may declare an Inc or Add method in
// non-test internal/obs; a push counter there would count only while
// telemetry is on, and beside an owner's field it counts a fact twice.
func TestRegistryOnlyReads(t *testing.T) {
	dir := filepath.Join("internal", "obs")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	// recvType names a method's receiver or a result's type, pointers
	// stripped ("" for anything else).
	recvType := func(e ast.Expr) string {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		if id, ok := e.(*ast.Ident); ok {
			return id.Name
		}
		return ""
	}
	handed := map[string]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || recvType(fd.Recv.List[0].Type) != "Registry" || fd.Type.Results == nil {
				continue
			}
			for _, r := range fd.Type.Results.List {
				if name := recvType(r.Type); name != "" {
					handed[name] = true
				}
			}
		}
	}
	if !handed["Gauge"] {
		t.Fatalf("found no Registry method returning *Gauge (handed out: %v): the guard no longer sees the registry", handed)
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || (fd.Name.Name != "Inc" && fd.Name.Name != "Add") {
				continue
			}
			if typ := recvType(fd.Recv.List[0].Type); handed[typ] {
				t.Errorf("%s: %s.%s: the registry hands out %s, so it would count; keep the count in its owner's field and register a Func that reads it",
					fset.Position(fd.Pos()), typ, fd.Name.Name, typ)
			}
		}
	}
}

// TestChecksumRequestIsGeometry keeps the outboard checksum hand-off one
// step (DESIGN §3): the transport writes the seed into the packet's
// checksum field, and what travels with the packet is only where that
// field is and how many header bytes the engine skips. No copy of the seed
// rides beside it (mbuf.Hdr.CsumSeed), no flag repeats a non-zero
// CsumSkip (mbuf.Hdr.NeedCsum, cab.SDMAReq.Csum), and no copy of the body
// sum the adaptor keeps on its packet sits in the stack's wCAB
// (mbuf.WCAB.BodySum). The CAB driver sends both personalities through one
// function, so it declares no sendLegacy or sendSingleCopy.
func TestChecksumRequestIsGeometry(t *testing.T) {
	banned := map[string][]string{
		"internal/mbuf.Hdr":    {"CsumSeed", "NeedCsum"},
		"internal/mbuf.WCAB":   {"BodySum"},
		"internal/cab.SDMAReq": {"Csum"},
	}
	seen := map[string]bool{}
	for _, dir := range []string{"internal/mbuf", "internal/cab", "internal/cabdrv"} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if dir == "internal/cabdrv" && (n.Name.Name == "sendLegacy" || n.Name.Name == "sendSingleCopy") {
						t.Errorf("%s: %s: the driver sends both personalities through one function", fset.Position(n.Pos()), n.Name.Name)
					}
				case *ast.TypeSpec:
					key := dir + "." + n.Name.Name
					st, ok := n.Type.(*ast.StructType)
					if !ok || banned[key] == nil {
						return true
					}
					seen[key] = true
					for _, fld := range st.Fields.List {
						for _, name := range fld.Names {
							if slices.Contains(banned[key], name.Name) {
								t.Errorf("%s: %s.%s: a checksum request is its geometry (CsumOff, CsumSkip); the seed is in the packet and the body sum on the adaptor",
									fset.Position(name.Pos()), n.Name.Name, name.Name)
							}
						}
					}
				}
				return true
			})
		}
	}
	for key := range banned {
		if !seen[key] {
			t.Errorf("found no struct %s: the guard no longer sees it", key)
		}
	}
}

// TestNoTestOnlyCapabilities keeps deleted what only its own unit tests
// ever called (ROADMAP 6(b), 6(d)). A process blocks on a resource, a
// socket buffer or the outstanding-DMA counter and every timeout is a TCP
// timer, so a Signal wait has no timeout and no generation scheme; a
// caller learns a connection closed from its State; routing is host
// routes only, and a route is the interface and next hop the stack reads;
// CPU work is charged through Kernel.Work or Ctx.Charge and data moved
// through the UIO primitives; the critical path has no cause class for
// Nagle, which the stack does not implement; a head-of-line run returns
// its utilization, the one figure the study reads; and a ledger hook or a
// profiler is read through its records and exports, not through a host
// label, an enabled flag or a per-host total. An entry is a declared name,
// or Type.name for a method or struct field of Type.
func TestNoTestOnlyCapabilities(t *testing.T) {
	banned := []struct {
		dir   string
		names []string
	}{
		{"internal/sim", []string{"WaitTimeout", "Proc.waitGen", "Proc.timedOut"}},
		{"internal/tcpip", []string{"TCPConn.WaitClosed", "TCPConn.closedSig"}},
		{"internal/netif", []string{"Table.SetDefault", "Table.Remove", "Table.def", "Route.Dst"}},
		{"internal/hippi", []string{"HOLResult"}},
		{"internal/obs/ledger", []string{"Hook.Host", "Hook.Enabled"}},
		{"internal/obs/prof", []string{"Profiler.HostTotal"}},
		{"internal/kern", []string{"IntrWork", "ResetAccounting", "CopyBytes"}},
		{"internal/obs", []string{"CauseNagle"}},
	}
	for _, b := range banned {
		ents, err := os.ReadDir(b.dir)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, e := range ents {
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, filepath.Join(b.dir, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			check := func(owner string, id *ast.Ident) {
				name := id.Name
				if owner != "" {
					name = owner + "." + name
				}
				if slices.Contains(b.names, id.Name) || slices.Contains(b.names, name) {
					t.Errorf("%s: %s: only its own unit tests reached it; it stays deleted", fset.Position(id.Pos()), name)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					owner := ""
					if n.Recv != nil && len(n.Recv.List) == 1 {
						typ := n.Recv.List[0].Type
						if star, ok := typ.(*ast.StarExpr); ok {
							typ = star.X
						}
						if id, ok := typ.(*ast.Ident); ok {
							owner = id.Name
						}
					}
					check(owner, n.Name)
				case *ast.TypeSpec:
					seen[n.Name.Name] = true
					check("", n.Name)
					if st, ok := n.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							for _, name := range fld.Names {
								check(n.Name.Name, name)
							}
						}
					}
				case *ast.ValueSpec:
					for _, name := range n.Names {
						check("", name)
					}
				}
				return true
			})
		}
		for _, name := range b.names {
			if typ, _, ok := strings.Cut(name, "."); ok && !seen[typ] {
				t.Errorf("%s declares no type %s: the guard no longer sees it", b.dir, typ)
			}
		}
	}
}

// TestLayersBoundOnce keeps the stack's layers one obs.Layer enum with one
// name table (ROADMAP 19): no non-test call of In passes a string literal
// and kern's Ctx.In takes an obs.Layer, so a context entering a layer looks
// no name up; the ledger binds no layer name of its own (no Hook.Layer, no
// layerNames, no Layer constants), since it seeds its table from the enum;
// and kern.Ctx carries no stream mapping (seg) and no interrupt flag
// (Intr): the mapping is an argument of the data primitives that read it,
// and interrupt context is a Ctx without a Task.
func TestLayersBoundOnce(t *testing.T) {
	parseDir := func(dir string, fn func(*token.FileSet, *ast.File)) {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			fn(fset, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, root := range []string{"internal", "cmd", "examples"} {
		parseDir(root, func(fset *token.FileSet, f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if lit, isLit := call.Args[0].(*ast.BasicLit); ok && sel.Sel.Name == "In" && isLit && lit.Kind == token.STRING {
					t.Errorf("%s: In(%s): enter a layer by its obs.Layer", fset.Position(call.Pos()), lit.Value)
				}
				return true
			})
		})
	}
	parseDir(filepath.Join("internal", "obs", "ledger"), func(fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if funcName(n) == "Hook.Layer" {
					t.Errorf("%s: Hook.Layer: a layer's ledger id is its obs.Layer value", fset.Position(n.Pos()))
				}
			case *ast.ValueSpec:
				for _, id := range n.Names {
					if id.Name == "layerNames" || strings.HasPrefix(id.Name, "Layer") {
						t.Errorf("%s: %s: the ledger's layers are obs.Layer's", fset.Position(id.Pos()), id.Name)
					}
				}
			}
			return true
		})
	})
	sawCtx, sawIn := false, false
	parseDir(filepath.Join("internal", "kern"), func(fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || n.Name.Name != "Ctx" {
					return true
				}
				sawCtx = true
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						if id.Name == "seg" || id.Name == "Intr" {
							t.Errorf("%s: Ctx.%s: the context carries only what its callers read", fset.Position(id.Pos()), id.Name)
						}
					}
				}
			case *ast.FuncDecl:
				if funcName(n) != "Ctx.In" {
					return true
				}
				sawIn = true
				params := n.Type.Params.List
				if len(params) != 1 || !isSelector(params[0].Type, "obs", "Layer") {
					t.Errorf("%s: Ctx.In must take one obs.Layer", fset.Position(n.Pos()))
				}
			}
			return true
		})
	})
	if !sawCtx || !sawIn {
		t.Fatal("internal/kern declares no Ctx struct or no Ctx.In: the guard no longer sees them")
	}
}

// TestNoUnreadState keeps every untagged struct field declared in non-test
// internal/ read somewhere in the module, tests included, or by the bench
// module, which is built against it: a field only ever written is state
// nothing reads, a count that counts nothing. A field is read at any
// selector of its name (an unexported one, in its own package) that is
// not a write: a write assigns it, increments or decrements it, assigns an
// element of it (x.f[i] = v, x.f[i]++), or appends to it
// (x.f = append(x.f, ...)); a composite-literal key is a write too. Tagged
// fields are read by their encoder. Each allowlist entry,
// dir.Type.field, says why its field stays; an entry whose field is read
// or gone fails the test.
func TestNoUnreadState(t *testing.T) {
	const mapKey = "a map key: the map reads every field when it hashes and compares keys"
	allow := map[string]string{
		"internal/tcpip.fragKey.src": mapKey,
		"internal/tcpip.fragKey.dst": mapKey,
		"internal/tcpip.fragKey.id":  mapKey,
	}
	type field struct {
		dir, typ, name string
		pos            token.Position
	}
	var decls []field
	// reads holds "name" for an exported field read anywhere and
	// "dir\x00name" for an unexported one read in dir.
	reads := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") && !strings.HasSuffix(path, "_test.go") {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, fld := range st.Fields.List {
						if fld.Tag != nil {
							continue
						}
						for _, id := range fld.Names {
							if id.Name != "_" {
								decls = append(decls, field{dir, ts.Name.Name, id.Name, fset.Position(id.Pos())})
							}
						}
					}
				}
				return true
			})
		}
		writes := map[*ast.SelectorExpr]bool{}
		written := func(e ast.Expr) {
			if ix, ok := e.(*ast.IndexExpr); ok {
				e = ix.X
			}
			if sel, ok := e.(*ast.SelectorExpr); ok {
				writes[sel] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					written(lhs)
					if len(n.Rhs) != len(n.Lhs) {
						continue
					}
					call, ok := n.Rhs[i].(*ast.CallExpr)
					if !ok || len(call.Args) == 0 {
						continue
					}
					if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
						continue
					}
					if sel, ok := call.Args[0].(*ast.SelectorExpr); ok && types.ExprString(sel) == types.ExprString(lhs) {
						writes[sel] = true
					}
				}
			case *ast.IncDecStmt:
				written(n.X)
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && !writes[sel] {
				reads[sel.Sel.Name] = true
				reads[dir+"\x00"+sel.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no struct field under internal/: the guard no longer sees them")
	}
	declared := map[string]bool{}
	for _, d := range decls {
		key := d.dir + "." + d.typ + "." + d.name
		declared[key] = true
		read := reads[d.dir+"\x00"+d.name]
		if token.IsExported(d.name) {
			read = reads[d.name]
		}
		if _, ok := allow[key]; ok {
			if read {
				t.Errorf("%s: allowlisted %s is read now: drop its entry", d.pos, key)
			}
			continue
		}
		if !read {
			t.Errorf("%s: %s is written and never read: delete it, or read what it records", d.pos, key)
		}
	}
	for key := range allow {
		if !declared[key] {
			t.Errorf("allowlisted %s is not an untagged field any more: drop its entry", key)
		}
	}
}

// TestOneChromeEncoder keeps the Chrome trace-event format one encoder
// (DESIGN §6): the span trace, the critical-path report and netobs's
// counter tracks all build obs.ChromeEvent values and write them through
// obs.ChromeJSON, so non-test internal/ declares exactly one struct with a
// traceEvents field, in internal/obs. A recorder that rolled its own file
// envelope would have to declare a second.
func TestOneChromeEncoder(t *testing.T) {
	var found []string
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				if fld.Tag == nil {
					continue
				}
				tag, err := strconv.Unquote(fld.Tag.Value)
				if err == nil && reflect.StructTag(tag).Get("json") == "traceEvents" {
					found = append(found, fset.Position(st.Pos()).String())
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || filepath.ToSlash(filepath.Dir(found[0])) != "internal/obs" {
		t.Errorf("structs with a traceEvents field: %v; want exactly one, obs.ChromeJSON's envelope in internal/obs", found)
	}
}

// TestHostTimeHasOneOwner keeps host time out of the simulation and its
// baselines: every committed BENCH_*.json holds only virtual-time results,
// which the gate compares byte for byte, and host cost is measured by the
// repository benchmark (bench/), in paired runs. So no non-test file under
// internal/ reads the wall clock or the allocator's statistics, except the
// engine meta-observer (internal/obs/engine), which bench/ reads.
func TestHostTimeHasOneOwner(t *testing.T) {
	const owner = "internal/obs/engine"
	hostTime := map[string][]string{
		"time":    {"Now", "Since", "Until"},
		"runtime": {"ReadMemStats"},
	}
	ownerRefs := 0
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := map[string]string{} // local import name -> import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if _, ok := hostTime[p]; !ok {
				continue
			}
			name := p
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || local[id.Name] == "" || !slices.Contains(hostTime[local[id.Name]], sel.Sel.Name) {
				return true
			}
			if filepath.ToSlash(filepath.Dir(path)) == owner {
				ownerRefs++
			} else {
				t.Errorf("%s: %s.%s reads host time outside %s; measure host cost in bench/",
					fset.Position(sel.Pos()), local[id.Name], sel.Sel.Name, owner)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ownerRefs == 0 {
		t.Errorf("%s reads no host time: the guard no longer sees its owner", owner)
	}
}
