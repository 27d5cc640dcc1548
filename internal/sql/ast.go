package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is an unbound expression AST node. Binding to column positions
// happens in internal/plan.
type Expr interface {
	exprNode()
	String() string
}

// Ident is a possibly-qualified column reference: name or qualifier.name.
type Ident struct {
	Qualifier string // table name or alias; empty if unqualified
	Name      string
}

func (*Ident) exprNode() {}

func (e *Ident) String() string {
	if e.Qualifier != "" {
		return e.Qualifier + "." + e.Name
	}
	return e.Name
}

// LitKind classifies literals.
type LitKind int

// Literal kinds. String literals may later be coerced to timestamps at
// bind time, depending on the column they are compared with.
const (
	LitInt LitKind = iota
	LitFloat
	LitString
	LitBool
)

// Lit is a literal constant.
type Lit struct {
	Kind  LitKind
	Int   int64
	Float float64
	Str   string
	Bool  bool
}

func (*Lit) exprNode() {}

// String prints the literal so that it lexes back to itself: a DOUBLE
// keeps a '.' (a bare 1000000 would read back as BIGINT) and never uses
// an exponent, which the lexer does not take, and a quote inside a
// string is doubled.
func (e *Lit) String() string {
	switch e.Kind {
	case LitInt:
		return fmt.Sprintf("%d", e.Int)
	case LitFloat:
		s := strconv.FormatFloat(e.Float, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	case LitBool:
		return fmt.Sprintf("%t", e.Bool)
	default:
		return "'" + strings.ReplaceAll(e.Str, "'", "''") + "'"
	}
}

// Binary is a binary operation; Op is one of = <> < <= > >= AND OR + - * /.
type Binary struct {
	Op   string
	L, R Expr
}

func (*Binary) exprNode() {}

func (e *Binary) String() string {
	if e.Op == "AND" || e.Op == "OR" {
		return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
	}
	return fmt.Sprintf("(%s %s %s)", operand(e.L), e.Op, operand(e.R))
}

// operand prints e as the operand of a comparison, arithmetic or
// negation. A NOT there needs parentheses: NOT binds looser than all
// three, so "NOT x = y" would read back as NOT (x = y).
func operand(e Expr) string {
	if u, ok := e.(*Unary); ok && u.Op == "NOT" {
		return "(" + u.String() + ")"
	}
	return e.String()
}

// Unary is NOT or numeric negation.
type Unary struct {
	Op string // "NOT" or "-"
	E  Expr
}

func (*Unary) exprNode() {}

func (e *Unary) String() string {
	if e.Op == "NOT" {
		return "NOT " + e.E.String()
	}
	s := operand(e.E)
	if strings.HasPrefix(s, "-") {
		// A space keeps "- -x" from printing as the line comment "--x".
		return "- " + s
	}
	return "-" + s
}

// Call is a function call; aggregates (AVG, SUM, COUNT, MIN, MAX) are the
// supported functions. Star marks COUNT(*).
type Call struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
}

func (*Call) exprNode() {}

func (e *Call) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return e.Name + "(" + d + strings.Join(args, ", ") + ")"
}

// SelectItem is one output column of a SELECT.
type SelectItem struct {
	E     Expr
	Alias string
	Star  bool // bare '*'
}

// TableRef names a base table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name the table is referred to by in the query.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is one JOIN ... ON ... step.
type JoinClause struct {
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	E    Expr
	Desc bool
}

// SelectStmt is a parsed SELECT query.
type SelectStmt struct {
	Items   []SelectItem
	From    TableRef
	Joins   []JoinClause
	Where   Expr
	GroupBy []Expr
	OrderBy []OrderItem
	Limit   *int64
}

// Tables returns every table referenced in FROM/JOIN, in syntactic order.
func (s *SelectStmt) Tables() []TableRef {
	out := []TableRef{s.From}
	for _, j := range s.Joins {
		out = append(out, j.Table)
	}
	return out
}

// String reassembles a canonical form of the query (for logs and tests).
func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if it.Star {
			sb.WriteString("*")
			continue
		}
		sb.WriteString(it.E.String())
		if it.Alias != "" {
			sb.WriteString(" AS " + it.Alias)
		}
	}
	sb.WriteString(" FROM " + s.From.Name)
	if s.From.Alias != "" {
		sb.WriteString(" " + s.From.Alias)
	}
	for _, j := range s.Joins {
		sb.WriteString(" JOIN " + j.Table.Name)
		if j.Table.Alias != "" {
			sb.WriteString(" " + j.Table.Alias)
		}
		sb.WriteString(" ON " + j.On.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		keys := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			keys[i] = g.String()
		}
		sb.WriteString(" GROUP BY " + strings.Join(keys, ", "))
	}
	if len(s.OrderBy) > 0 {
		keys := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			keys[i] = o.E.String()
			if o.Desc {
				keys[i] += " DESC"
			}
		}
		sb.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	if s.Limit != nil {
		sb.WriteString(fmt.Sprintf(" LIMIT %d", *s.Limit))
	}
	return sb.String()
}
