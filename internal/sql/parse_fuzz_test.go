package sql

import "testing"

// FuzzParse: any input either fails to parse, or its printed form parses
// again and prints the same text. The seed corpus is committed under
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil {
			return
		}
		printed := stmt.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form %q of %q does not parse: %v", printed, input, err)
		}
		if got := again.String(); got != printed {
			t.Fatalf("printed form is not a fixed point:\n%q\nprints as\n%q", printed, got)
		}
	})
}
