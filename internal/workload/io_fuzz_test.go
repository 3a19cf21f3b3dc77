package workload

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// FuzzReadCSV feeds the trace CSV reader arbitrary bytes: it must return a
// trace or an error and never panic. A parsed trace is sorted by
// (At, Function) with every arrival inside [0, Duration], and writing it
// back out must read in again exactly — generated traces seed the corpus,
// so the WriteCSV→ReadCSV round trip is checked on them too.
func FuzzReadCSV(f *testing.F) {
	for _, tr := range []*Trace{
		MixedPoisson([]string{"a", "b", "c"}, 2*time.Hour, 9),
		AzureLike([]string{"f1", "f2", "f3", "f4"}, 6*time.Hour, 3),
		{Duration: time.Hour},
	} {
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("at_ns,function\n5,b\n5,a\n1,c\n")
	f.Add("at_ns,function\n-1,a\n")
	f.Add("at_ns,function\n9223372036854775807,a\n")
	f.Add("at_ns,function\n10,a\n5,#horizon\n")
	f.Add("at_ns,function\n1,\"quoted, name\"\n")
	f.Add("at_ns\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		for i, r := range tr.Requests {
			if r.At < 0 || r.At > tr.Duration {
				t.Fatalf("request %d at %v outside horizon %v", i, r.At, tr.Duration)
			}
			if i > 0 {
				prev := tr.Requests[i-1]
				if r.At < prev.At || (r.At == prev.At && r.Function < prev.Function) {
					t.Fatalf("requests %d,%d out of (At, Function) order: %+v then %+v", i-1, i, prev, r)
				}
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("writing a parsed trace: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v", err)
		}
		sameTrace(t, tr, back)
	})
}
