package sql

import (
	"strings"
	"testing"
)

// query1 is the paper's Figure 2 verbatim.
const query1 = `SELECT AVG(D.sample_value)
FROM F JOIN R ON F.uri = R.uri
JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
WHERE F.station = 'ISK' AND F.channel = 'BHE'
AND R.start_time > '2010-01-12T00:00:00.000'
AND R.start_time < '2010-01-12T23:59:59.999'
AND D.sample_time > '2010-01-12T22:15:00.000'
AND D.sample_time < '2010-01-12T22:15:02.000';`

func TestParseQuery1(t *testing.T) {
	stmt, err := Parse(query1)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 1 {
		t.Fatalf("items = %d, want 1", len(stmt.Items))
	}
	call, ok := stmt.Items[0].E.(*Call)
	if !ok || call.Name != "AVG" {
		t.Fatalf("item 0 = %#v, want AVG call", stmt.Items[0].E)
	}
	tabs := stmt.Tables()
	if len(tabs) != 3 || tabs[0].Name != "F" || tabs[1].Name != "R" || tabs[2].Name != "D" {
		t.Fatalf("tables = %v", tabs)
	}
	on2, ok := stmt.Joins[1].On.(*Binary)
	if !ok || on2.Op != "AND" {
		t.Fatalf("second ON should be an AND of two equalities: %v", stmt.Joins[1].On)
	}
	if stmt.Where == nil {
		t.Fatal("WHERE lost")
	}
	// WHERE is six conjuncts.
	count := 0
	var walk func(e Expr)
	walk = func(e Expr) {
		if b, ok := e.(*Binary); ok && b.Op == "AND" {
			walk(b.L)
			walk(b.R)
			return
		}
		count++
	}
	walk(stmt.Where)
	if count != 6 {
		t.Errorf("WHERE has %d conjuncts, want 6", count)
	}
}

func TestParseQuery2Shape(t *testing.T) {
	stmt, err := Parse(`SELECT D.sample_time, D.sample_value
		FROM F JOIN R ON F.uri = R.uri
		JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
		WHERE F.station = 'ISK'
		AND D.sample_time > '2010-01-12T22:15:00.000'
		AND D.sample_time < '2010-01-12T22:15:02.000'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 2 {
		t.Fatalf("items = %d", len(stmt.Items))
	}
	id, ok := stmt.Items[0].E.(*Ident)
	if !ok || id.Qualifier != "D" || id.Name != "sample_time" {
		t.Errorf("item 0 = %#v", stmt.Items[0].E)
	}
}

func TestParseGroupOrderLimit(t *testing.T) {
	stmt, err := Parse(`SELECT F.station, COUNT(*) AS n FROM F
		GROUP BY F.station ORDER BY n DESC, F.station ASC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.GroupBy) != 1 || len(stmt.OrderBy) != 2 {
		t.Fatalf("group/order = %d/%d", len(stmt.GroupBy), len(stmt.OrderBy))
	}
	if !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Error("DESC/ASC flags wrong")
	}
	if stmt.Limit == nil || *stmt.Limit != 5 {
		t.Error("LIMIT lost")
	}
	if stmt.Items[1].Alias != "n" {
		t.Errorf("alias = %q", stmt.Items[1].Alias)
	}
}

func TestParseAliases(t *testing.T) {
	stmt, err := Parse(`SELECT f.station FROM F f JOIN R r ON f.uri = r.uri`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.From.Alias != "f" || stmt.Joins[0].Table.Alias != "r" {
		t.Errorf("aliases = %q, %q", stmt.From.Alias, stmt.Joins[0].Table.Alias)
	}
	if stmt.From.Binding() != "f" {
		t.Error("Binding should prefer alias")
	}
}

func TestParseBetween(t *testing.T) {
	stmt, err := Parse(`SELECT x FROM T WHERE x BETWEEN 1 AND 5`)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := stmt.Where.(*Binary)
	if !ok || b.Op != "AND" {
		t.Fatalf("BETWEEN should desugar to AND: %v", stmt.Where)
	}
	lo := b.L.(*Binary)
	hi := b.R.(*Binary)
	if lo.Op != ">=" || hi.Op != "<=" {
		t.Errorf("desugared ops = %s, %s", lo.Op, hi.Op)
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt, err := Parse(`SELECT x FROM T WHERE a = 1 OR b = 2 AND c = 3`)
	if err != nil {
		t.Fatal(err)
	}
	or, ok := stmt.Where.(*Binary)
	if !ok || or.Op != "OR" {
		t.Fatalf("top must be OR: %v", stmt.Where)
	}
	and, ok := or.R.(*Binary)
	if !ok || and.Op != "AND" {
		t.Errorf("AND must bind tighter: %v", or.R)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	stmt, err := Parse(`SELECT a + b * c FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	add := stmt.Items[0].E.(*Binary)
	if add.Op != "+" {
		t.Fatalf("top = %s", add.Op)
	}
	if mul, ok := add.R.(*Binary); !ok || mul.Op != "*" {
		t.Error("* must bind tighter than +")
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	stmt, err := Parse(`SELECT x FROM T WHERE x > -5 AND y < -2.5`)
	if err != nil {
		t.Fatal(err)
	}
	and := stmt.Where.(*Binary)
	l := and.L.(*Binary).R.(*Lit)
	if l.Kind != LitInt || l.Int != -5 {
		t.Errorf("literal = %+v", l)
	}
	r := and.R.(*Binary).R.(*Lit)
	if r.Kind != LitFloat || r.Float != -2.5 {
		t.Errorf("literal = %+v", r)
	}
}

func TestParseStringEscapes(t *testing.T) {
	stmt, err := Parse(`SELECT x FROM T WHERE s = 'it''s'`)
	if err != nil {
		t.Fatal(err)
	}
	lit := stmt.Where.(*Binary).R.(*Lit)
	if lit.Str != "it's" {
		t.Errorf("escaped string = %q", lit.Str)
	}
	if got := lit.String(); got != "'it''s'" {
		t.Errorf("escaped string prints as %s", got)
	}
}

func TestParseComments(t *testing.T) {
	stmt, err := Parse("SELECT x -- the column\nFROM T")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 1 {
		t.Error("comment broke parse")
	}
}

func TestParseStar(t *testing.T) {
	stmt, err := Parse(`SELECT * FROM F`)
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Items[0].Star {
		t.Error("star item lost")
	}
	stmt, err = Parse(`SELECT COUNT(*) FROM F`)
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Items[0].E.(*Call).Star {
		t.Error("COUNT(*) star lost")
	}
}

func TestParseCountDistinct(t *testing.T) {
	stmt, err := Parse(`SELECT COUNT(DISTINCT uri) FROM R`)
	if err != nil {
		t.Fatal(err)
	}
	c := stmt.Items[0].E.(*Call)
	if !c.Distinct || len(c.Args) != 1 {
		t.Errorf("call = %+v", c)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT FROM T",
		"SELECT x",
		"SELECT x FROM",
		"SELECT x FROM T WHERE",
		"SELECT x FROM T JOIN",
		"SELECT x FROM T JOIN U",           // missing ON
		"SELECT x FROM T LIMIT x",          // non-numeric limit
		"SELECT x FROM T WHERE s = 'open",  // unterminated string
		"SELECT x FROM T; SELECT y FROM T", // trailing garbage
		"SELECT x FROM T WHERE a = = 1",
		"SELECT x FROM T GROUP x",
		"SELECT x FROM T WHERE x @ 3",
	}
	for _, q := range cases {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestStringRoundTripParses(t *testing.T) {
	stmt, err := Parse(query1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(stmt.String())
	if err != nil {
		t.Fatalf("canonical form %q does not reparse: %v", stmt.String(), err)
	}
	if again.String() != stmt.String() {
		t.Error("canonical form not a fixed point")
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("SELECT x")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != 0 || toks[1].Pos != 7 {
		t.Errorf("positions = %d, %d", toks[0].Pos, toks[1].Pos)
	}
}

// TestLexRejectsNonASCIIOutsideStrings: identifiers are ASCII, and any
// other byte outside a string literal is reported at its own offset,
// including the first byte of a multi-byte UTF-8 letter or space.
func TestLexRejectsNonASCIIOutsideStrings(t *testing.T) {
	for _, tc := range []struct {
		input string
		want  string
	}{
		{"SELECT \xdc FROM t", `"\xdc" at offset 7`},
		{"SELECT \u00e9 FROM t", `"\xc3" at offset 7`},
		{"SELECT\u00a0a FROM t", `"\xc2" at offset 6`},
	} {
		_, err := Lex(tc.input)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Lex(%q) = %v, want unexpected character %s", tc.input, err, tc.want)
		}
	}
	if _, err := Parse("SELECT '\u00e9' FROM t"); err != nil {
		t.Errorf("non-ASCII inside a string literal rejected: %v", err)
	}
}

func TestKeywordCaseInsensitive(t *testing.T) {
	stmt, err := Parse(`select x from T where x > 1 limit 3`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Limit == nil || *stmt.Limit != 3 {
		t.Error("lowercase keywords failed")
	}
	if !strings.Contains(stmt.String(), "SELECT") {
		t.Error("canonical form should upper keywords")
	}
}

func TestParseInList(t *testing.T) {
	stmt, err := Parse(`SELECT x FROM T WHERE s IN ('a', 'b', 'c')`)
	if err != nil {
		t.Fatal(err)
	}
	or, ok := stmt.Where.(*Binary)
	if !ok || or.Op != "OR" {
		t.Fatalf("IN should desugar to OR chain: %v", stmt.Where)
	}
	inner, ok := or.L.(*Binary)
	if !ok || inner.Op != "OR" {
		t.Fatalf("three-element IN needs nested OR: %v", or.L)
	}
	if eq := or.R.(*Binary); eq.Op != "=" || eq.R.(*Lit).Str != "c" {
		t.Errorf("last disjunct = %v", or.R)
	}
}

func TestParseNotInList(t *testing.T) {
	stmt, err := Parse(`SELECT x FROM T WHERE s NOT IN (1, 2)`)
	if err != nil {
		t.Fatal(err)
	}
	not, ok := stmt.Where.(*Unary)
	if !ok || not.Op != "NOT" {
		t.Fatalf("NOT IN should desugar to NOT(OR): %v", stmt.Where)
	}
	if or := not.E.(*Binary); or.Op != "OR" {
		t.Errorf("inner = %v", not.E)
	}
}

func TestParseInErrors(t *testing.T) {
	for _, q := range []string{
		`SELECT x FROM T WHERE s IN`,
		`SELECT x FROM T WHERE s IN ()`,
		`SELECT x FROM T WHERE s IN ('a'`,
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded", q)
		}
	}
}
