package obs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/obs/netobs"
)

// recordTypes maps the type argument of every obs.Log in a non-test file,
// as the source spells it, to the type.
var recordTypes = map[string]reflect.Type{
	"chromeEvent":       reflect.TypeOf(obs.ChromeEvent{}),
	"CritEvent":         reflect.TypeOf(obs.CritEvent{}),
	"CritAlt":           reflect.TypeOf(obs.CritAlt{}),
	"Record":            reflect.TypeOf(ledger.Record{}),
	"FlowSample":        reflect.TypeOf(netobs.FlowSample{}),
	"RtxEvent":          reflect.TypeOf(netobs.RtxEvent{}),
	"series ring chunk": seriesCell(),
}

// seriesCell returns the element type of a series ring's chunks.
func seriesCell() reflect.Type {
	f, ok := reflect.TypeOf(obs.Series{}).FieldByName("chunks")
	if !ok {
		panic("obs.Series has no chunks field: point seriesCell at the ring")
	}
	return f.Type.Elem().Elem()
}

// TestRecordLogsPointerFree keeps the recorders' storage out of the
// collector's way: every record type an obs.Log holds, and the cell of a
// series ring, contains no pointer — no string, slice, map or interface —
// so each chunk is a no-scan allocation however many records it holds.
// Names go in the recorder's obs.Names table; records hold their ids. A
// Log of a type missing from recordTypes fails the test too.
func TestRecordLogsPointerFree(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ix, ok := n.(*ast.IndexExpr)
			if !ok || !isLog(ix.X) {
				return true
			}
			name := typeName(ix.Index)
			if name == "T" && filepath.Base(path) == "log.go" {
				return true // the Log's own declaration
			}
			if _, ok := recordTypes[name]; !ok {
				t.Errorf("%s: obs.Log[%s]: add the record type to recordTypes", fset.Position(ix.Pos()), name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, typ := range recordTypes {
		if p := pointerPath(typ, typ.Name()); p != "" {
			t.Errorf("%s holds a pointer at %s: store a Name or an enum", name, p)
		}
	}
}

// isLog reports whether x names obs.Log or NewLog, qualified or not.
func isLog(x ast.Expr) bool {
	if sel, ok := x.(*ast.SelectorExpr); ok {
		x = sel.Sel
	}
	id, ok := x.(*ast.Ident)
	return ok && (id.Name == "Log" || id.Name == "NewLog")
}

// typeName returns the unqualified name of a type expression.
func typeName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return "?"
}

// pointerPath returns where typ holds a pointer (at is typ's own path), or
// "" when it holds none.
func pointerPath(typ reflect.Type, at string) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerPath(f.Type, at+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerPath(typ.Elem(), at+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return at + " (" + typ.Kind().String() + ")"
	}
	return ""
}
