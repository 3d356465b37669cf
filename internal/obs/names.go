package obs

// Name is a recorder's id for a string — a host, a layer, a stage, a
// Chrome tid or event name — in the recorder's Names table. Records store
// Names, not strings, so the chunks of an obs.Log hold no pointer and the
// collector never scans them.
type Name uint16

// NoName is the id no table binds: Lookup returns it for a name the table
// does not hold, so a query for that name matches no record.
const NoName = ^Name(0)

// Names is one recorder's string table. A name is bound once, where the
// recorder first meets it (a chain, span or hook is created, a context
// enters a layer), and its id is what each record stores; exporters turn
// ids back into strings. Name 0 is always "". Like its recorder, a Names
// is single-threaded.
type Names struct {
	names []string
	ids   map[string]Name
}

// NewNames returns a table binding "" to 0 and then each of pre, in order,
// to 1, 2, …, so callers can declare constant ids for names every table
// holds.
func NewNames(pre ...string) *Names {
	t := &Names{ids: make(map[string]Name, len(pre)+1)}
	t.Bind("")
	for _, s := range pre {
		t.Bind(s)
	}
	return t
}

// Bind returns s's id, adding s to the table on first use.
func (t *Names) Bind(s string) Name {
	if id, ok := t.ids[s]; ok {
		return id
	}
	if len(t.names) >= int(NoName) {
		panic("obs: name table full")
	}
	id := Name(len(t.names))
	t.names = append(t.names, s)
	t.ids[s] = id
	return id
}

// Lookup returns s's id, or NoName when s was never bound. Unlike Bind it
// never adds to the table, so a read-only query leaves the recorder as it
// was.
func (t *Names) Lookup(s string) Name {
	if id, ok := t.ids[s]; ok {
		return id
	}
	return NoName
}

// String returns the name bound to id.
func (t *Names) String(id Name) string { return t.names[id] }
