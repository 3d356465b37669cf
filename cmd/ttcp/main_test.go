package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestEnumFlagsRejected: an unknown value for an enumerated flag used to run
// a default (an unknown -mode ran the single-copy stack, -machine ran the
// Alpha 400, -proto ran TCP). Each is now refused with exit status 2 and a
// message naming the flag and what it accepts.
func TestEnumFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "unmod"}, `unknown -mode "unmod" (want single, unmodified, raw)`},
		{[]string{"-proto", "sctp"}, `unknown -proto "sctp" (want tcp, udp)`},
		{[]string{"-machine", "alpha500"}, `unknown -machine "alpha500" (want alpha400, alpha300)`},
	} {
		var out, errb bytes.Buffer
		if status := run(tc.args, &out, &errb); status != 2 {
			t.Errorf("%v: status %d, want 2", tc.args, status)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%v: stderr %q, want it to say %s", tc.args, errb.String(), tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: a refused run printed %q", tc.args, out.String())
		}
	}
}

// TestEnumFlagsAccepted: every accepted value still runs, on a tiny
// transfer.
func TestEnumFlagsAccepted(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "single", "-proto", "tcp", "-machine", "alpha400"}, "ttcp (single stack, Alpha 3000/400"},
		{[]string{"-mode", "unmodified", "-machine", "alpha300"}, "ttcp (unmodified stack, Alpha 3000/300"},
		{[]string{"-mode", "raw"}, "ttcp (raw stack"},
		{[]string{"-proto", "udp", "-mode", "unmodified"}, "ttcp -u (unmodified stack"},
	} {
		var out, errb bytes.Buffer
		args := append([]string{"-total", "256K"}, tc.args...)
		if status := run(args, &out, &errb); status != 0 {
			t.Errorf("%v: status %d: %s", tc.args, status, errb.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%v: output %q, want it to start a %q report", tc.args, out.String(), tc.want)
		}
	}
}
