package obs

import "testing"

// TestNamesLookupNeverBinds: Lookup finds a bound name and answers NoName
// for any other, without adding it, so the next Bind still takes the next
// free id; NoName itself is never bound.
func TestNamesLookupNeverBinds(t *testing.T) {
	n := NewNames("a", "b")
	if id := n.Lookup("b"); id != 2 || n.String(id) != "b" {
		t.Fatalf("Lookup(b) = %d, want 2", id)
	}
	if id := n.Lookup("c"); id != NoName {
		t.Fatalf("Lookup of an unbound name = %d, want NoName", id)
	}
	if id := n.Bind("c"); id != 3 {
		t.Fatalf("Bind(c) after a failed Lookup = %d, want 3", id)
	}
	for len(n.names) < int(NoName) {
		n.names = append(n.names, "")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a full table bound NoName")
		}
	}()
	n.Bind("one too many")
}
