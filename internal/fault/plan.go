package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/hippi"
	"repro/internal/units"
)

// ParsePlan parses a fault plan spec into rules. The grammar is
// semicolon-separated rules, each `kind` or `kind:param,param,...`:
//
//	kind   := drop | corrupt | dup | reorder | delay | partition
//	        | dmafail | txcsum | rxcsum | netmem | allocfail | cabreset
//	param  := every=N        fire on every Nth eligible event
//	        | p=F            fire with probability F (seeded)
//	        | burst=S+L      fire on L consecutive events after the first S
//	        | at=DUR         fire once at virtual time DUR (window start for
//	                         the stateful kinds partition/netmem/cabreset)
//	        | window=D1+D2   fire on every event in [D1, D2)
//	        | min=SIZE       per-packet wire rules: only frames >= SIZE
//	        | delay=DUR      delay/reorder rules: the extra delay
//	        | dup=N          dup rules: extra copies per fire
//	        | pages=N        netmem: pages to reserve (default: all)
//	        | until=DUR      netmem/partition: window end (with at=DUR start)
//	        | dur=DUR        netmem/partition: window length (until = at+dur;
//	                         omitted: the window never closes)
//	        | src=N          partition: only frames from HIPPI node N
//	        | dst=N          partition: only frames to HIPPI node N
//	        | link=NAME      partition: the named fabric trunk (e.g.
//	                         leaf0-spine1) instead of the host wire
//	        | node=N         cabreset: only the adaptor on HIPPI node N
//	DUR    := <int>ns|us|ms|s     SIZE := <int>[K|M]
//
// Parameters are validated per kind: a param that does not apply to the
// rule's kind is a positional parse error, never a silently ignored
// zero-value schedule. A per-packet rule with no schedule param defaults
// to every=100; cabreset requires an explicit at=. Examples:
//
//	drop:every=13,min=1000
//	corrupt:p=0.01;dup:every=97
//	netmem:at=1ms,until=6ms;dmafail:burst=50+20
//	partition:at=5ms,dur=20ms
//	cabreset:at=8ms,node=1
func ParsePlan(spec string) ([]Rule, error) {
	var rules []Rule
	idx := 0
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		idx++
		name, params, _ := strings.Cut(part, ":")
		kind, err := parseKind(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("fault plan: rule %d: %w", idx, err)
		}
		r := Rule{Kind: kind}
		sawAnchor := false
		if params != "" {
			for _, ps := range strings.Split(params, ",") {
				ps = strings.TrimSpace(ps)
				if err := parseParam(&r, ps, &sawAnchor); err != nil {
					return nil, fmt.Errorf("fault plan: rule %d (%s): %w", idx, kind, err)
				}
			}
		}
		if err := finishRule(&r, sawAnchor); err != nil {
			return nil, fmt.Errorf("fault plan: rule %d (%s): %w", idx, kind, err)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fault plan: empty plan %q", spec)
	}
	return rules, nil
}

// finishRule applies per-kind defaults and structural checks after all
// params are parsed.
func finishRule(r *Rule, sawAnchor bool) error {
	if r.Dur > 0 && r.Until == 0 {
		r.Until = r.From + r.Dur
	}
	switch {
	case statefulKind(r.Kind):
		if r.Kind == CABReset && !sawAnchor {
			return fmt.Errorf("needs an at=DUR reset time")
		}
		if r.Link != "" && (r.SrcNode != 0 || r.DstNode != 0) {
			return fmt.Errorf("link=%s excludes src/dst (a trunk has no host endpoints)", r.Link)
		}
		if r.Until != 0 && r.Until <= r.From {
			return fmt.Errorf("window end %v not after start %v", r.Until, r.From)
		}
	default:
		if r.When == nil {
			r.When = Every(100)
		}
	}
	return nil
}

// MustPlan is ParsePlan for known-good specs (tests, experiment tables).
func MustPlan(spec string) []Rule {
	rs, err := ParsePlan(spec)
	if err != nil {
		panic(err)
	}
	return rs
}

// AddPlan parses spec and adds every rule to the injector.
func (in *Injector) AddPlan(spec string) error {
	rs, err := ParsePlan(spec)
	if err != nil {
		return err
	}
	for _, r := range rs {
		in.Add(r)
	}
	return nil
}

func parseKind(s string) (Kind, error) {
	for k := Kind(0); k < numKinds; k++ {
		if s == kindNames[k] {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown kind %q (want %s)", s, strings.Join(kindNames[:], "|"))
}

// paramAllowed is the per-kind parameter matrix: a key that is not
// meaningful for the rule's kind is rejected at parse time rather than
// silently producing a zero-value schedule.
func paramAllowed(k Kind, key string) bool {
	perPacket := !statefulKind(k)
	switch key {
	case "every", "p", "burst":
		return perPacket
	case "at":
		return true // time anchor is valid for every kind
	case "window":
		return k != CABReset
	case "until", "dur":
		return k == Netmem || k == Partition
	case "min":
		return k <= Delay
	case "delay":
		return k == Delay || k == Reorder
	case "dup":
		return k == Dup
	case "pages":
		return k == Netmem
	case "src", "dst", "link":
		return k == Partition
	case "node":
		return k == CABReset
	}
	return false
}

func parseParam(r *Rule, p string, sawAnchor *bool) error {
	key, val, ok := strings.Cut(p, "=")
	if !ok {
		return fmt.Errorf("bad param %q (want key=value)", p)
	}
	if !paramAllowed(r.Kind, key) {
		return fmt.Errorf("param %q does not apply to kind %s", p, r.Kind)
	}
	switch key {
	case "every":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return fmt.Errorf("bad every=%q", val)
		}
		r.When = Every(n)
	case "p":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 || f > 1 {
			return fmt.Errorf("bad p=%q", val)
		}
		r.When = Prob(f)
	case "burst":
		s, l, ok := strings.Cut(val, "+")
		start, err1 := strconv.Atoi(s)
		length, err2 := strconv.Atoi(l)
		if !ok || err1 != nil || err2 != nil || start < 0 || length < 1 {
			return fmt.Errorf("bad burst=%q (want S+L)", val)
		}
		r.When = Burst(start, length)
	case "at":
		t, err := parseDur(val)
		if err != nil {
			return err
		}
		*sawAnchor = true
		if statefulKind(r.Kind) {
			r.From = t
		} else {
			r.When = At(t)
		}
	case "window":
		f, u, ok := strings.Cut(val, "+")
		from, err1 := parseDur(f)
		to, err2 := parseDur(u)
		if !ok || err1 != nil || err2 != nil || to <= from {
			return fmt.Errorf("bad window=%q (want FROM+TO)", val)
		}
		*sawAnchor = true
		if statefulKind(r.Kind) {
			r.From, r.Until = from, to
		} else {
			r.When = Window(from, to)
		}
	case "until":
		t, err := parseDur(val)
		if err != nil {
			return err
		}
		r.Until = t
	case "dur":
		t, err := parseDur(val)
		if err != nil {
			return err
		}
		if t == 0 {
			return fmt.Errorf("bad dur=%q (want a positive duration)", val)
		}
		r.Dur = t
	case "min":
		n, err := units.ParseSize(val)
		if err != nil {
			return err
		}
		r.MinLen = n
	case "delay":
		t, err := parseDur(val)
		if err != nil {
			return err
		}
		r.Delay = t
	case "dup":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return fmt.Errorf("bad dup=%q", val)
		}
		r.Dup = n
	case "pages":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return fmt.Errorf("bad pages=%q", val)
		}
		r.Pages = n
	case "link":
		if val == "" {
			return fmt.Errorf("bad link=%q (want a fabric link name like leaf0-spine1)", val)
		}
		r.Link = val
	case "src", "dst", "node":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return fmt.Errorf("bad %s=%q (want a HIPPI node id >= 1)", key, val)
		}
		switch key {
		case "src":
			r.SrcNode = hippi.NodeID(n)
		case "dst":
			r.DstNode = hippi.NodeID(n)
		case "node":
			r.Node = hippi.NodeID(n)
		}
	default:
		return fmt.Errorf("unknown param %q", key)
	}
	return nil
}

func parseDur(s string) (units.Time, error) {
	mult := units.Time(0)
	num := s
	switch {
	case strings.HasSuffix(s, "ns"):
		mult, num = units.Nanosecond, s[:len(s)-2]
	case strings.HasSuffix(s, "us"):
		mult, num = units.Microsecond, s[:len(s)-2]
	case strings.HasSuffix(s, "ms"):
		mult, num = units.Millisecond, s[:len(s)-2]
	case strings.HasSuffix(s, "s"):
		mult, num = units.Second, s[:len(s)-1]
	default:
		return 0, fmt.Errorf("bad duration %q (want <int>ns|us|ms|s)", s)
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/int64(mult) {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	return units.Time(n) * mult, nil
}
