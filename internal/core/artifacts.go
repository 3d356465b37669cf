package core

import (
	"errors"
	"flag"
	"math"
	"os"
	"slices"
	"strconv"

	"repro/internal/obs/critpath"
	"repro/internal/units"
)

// Artifact is one file a run can write from its testbed's recorders.
type Artifact struct {
	// Flag names the command-line flag that takes the file's path, and
	// Usage is that flag's help text.
	Flag, Usage string
	// Needs is the set Render reads; a command records it whenever the
	// flag is given.
	Needs Recorders
	// Render encodes the file from a testbed that recorded Needs.
	Render func(*Testbed) []byte
}

// Artifacts is every file a run can write. Commands register their file
// flags from it and write through it, so a file's flag, help text and bytes
// are the same in every command that offers it.
var Artifacts = []Artifact{
	{"trace", "write a Chrome trace-event JSON file to this path", Recorders{Telemetry: true},
		func(tb *Testbed) []byte { return tb.Tel.Chrome() }},
	{"metrics", "write the JSON metrics snapshot to this path", Recorders{Telemetry: true},
		func(tb *Testbed) []byte { return tb.Tel.Snapshot().JSON() }},
	{"profile-out", "write the folded-stacks CPU profile to this path", Recorders{Profile: true},
		func(tb *Testbed) []byte { return []byte(tb.Prof.Folded()) }},
	{"profile-json", "write the CPU profile JSON snapshot to this path", Recorders{Profile: true},
		func(tb *Testbed) []byte { return tb.Prof.Snapshot().JSON() }},
	{"series", "write the utilization time-series JSON to this path", Recorders{Series: DefaultSeriesInterval},
		func(tb *Testbed) []byte { return tb.Series.Snapshot().JSON() }},
	{"series-csv", "write the utilization time-series CSV to this path", Recorders{Series: DefaultSeriesInterval},
		func(tb *Testbed) []byte { return []byte(tb.Series.Snapshot().CSV()) }},
	{"ledger", "write the full data-touch ledger JSON to this path", Recorders{Ledger: true},
		func(tb *Testbed) []byte { return tb.Led.JSON() }},
	{"flightrec", "write the flight-recorder image (recent ledger + trace events) to this path",
		Recorders{Telemetry: true, Ledger: true}, (*Testbed).FlightDump},
	{"critpath-chrome", "write the critical paths as Chrome trace-event JSON to this path", Recorders{CritPath: true},
		func(tb *Testbed) []byte { return critpath.Analyze(tb.Tel.Crit()).ChromeJSON() }},
	{"netobs-json", "write the full transport-dynamics recorder dump to this path", Recorders{NetObs: true},
		func(tb *Testbed) []byte { return tb.NetObs.Snapshot().JSON() }},
	{"netobs-chrome", "write the transport-dynamics series as Chrome-trace counter tracks to this path", Recorders{NetObs: true},
		func(tb *Testbed) []byte { return tb.NetObs.Chrome() }},
}

// ArtifactFlags is the set of Artifacts rows one command offers, with the
// paths its flags were given.
type ArtifactFlags struct {
	rows  []Artifact
	paths []*string
	// series is the -series-interval-us value, registered with the first
	// row that records a series.
	series *seriesInterval
}

// RegisterArtifacts defines on fs the flag of each Artifacts row named in
// flags, and -series-interval-us beside the series rows.
func RegisterArtifacts(fs *flag.FlagSet, flags ...string) ArtifactFlags {
	var f ArtifactFlags
	for _, a := range Artifacts {
		if slices.Contains(flags, a.Flag) {
			f.rows = append(f.rows, a)
			f.paths = append(f.paths, fs.String(a.Flag, "", a.Usage))
			if a.Needs.Series != 0 && f.series == nil {
				f.series = &seriesInterval{DefaultSeriesInterval}
				fs.Var(f.series, "series-interval-us", "series sampling interval, `µs` of virtual time")
			}
		}
	}
	return f
}

// Recorders is the union of the Needs of every row given a path; a series
// samples at the -series-interval-us interval.
func (f ArtifactFlags) Recorders() Recorders {
	var r Recorders
	for i, a := range f.rows {
		if *f.paths[i] != "" {
			r = r.Union(a.Needs)
		}
	}
	if r.Series != 0 {
		r.Series = f.series.t
	}
	return r
}

// seriesInterval is the -series-interval-us flag. It refuses an interval
// that is not positive or does not fit units.Time.
type seriesInterval struct{ t units.Time }

func (s *seriesInterval) String() string {
	if s == nil {
		return "0"
	}
	return strconv.FormatInt(int64(s.t/units.Microsecond), 10)
}

func (s *seriesInterval) Set(v string) error {
	us, err := strconv.ParseInt(v, 10, 64)
	if err != nil || us <= 0 || us > math.MaxInt64/int64(units.Microsecond) {
		return errors.New("want a positive whole number of µs that fits a virtual time")
	}
	s.t = units.Time(us) * units.Microsecond
	return nil
}

// Write renders every row given a path from tb, which recorded at least
// f.Recorders(), and writes it to that path.
func (f ArtifactFlags) Write(tb *Testbed) error {
	for i, a := range f.rows {
		if *f.paths[i] != "" {
			if err := os.WriteFile(*f.paths[i], a.Render(tb), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
