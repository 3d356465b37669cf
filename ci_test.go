package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestWorkflowRunsCITargets holds the GitHub workflow to the Makefile: its
// steps are exactly the prerequisites of `ci:`, in order, so a check
// cannot live in one and be missing from the other.
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
