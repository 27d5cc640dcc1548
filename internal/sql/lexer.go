// Package sql implements the query front-end: a lexer, an AST and a
// recursive-descent parser for the SQL subset the paper's exploration
// queries use (SELECT with aggregates, multi-way JOIN ... ON, WHERE
// conjunctions, GROUP BY, ORDER BY, LIMIT).
//
// The two-stage paradigm deliberately "does not require any change in
// the querying front-end": this package knows nothing about metadata
// versus actual data; that distinction is applied later, in plan
// rewriting.
package sql

import (
	"fmt"
	"strings"
)

// TokenKind classifies lexer output.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokSymbol
)

// Token is one lexical unit with its source position (byte offset).
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; idents keep their case
	Pos  int
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.Text)
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "JOIN": true, "ON": true,
	"AND": true, "OR": true, "NOT": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "AS": true, "ASC": true, "DESC": true,
	"INNER": true, "DISTINCT": true, "BETWEEN": true, "IN": true, "TRUE": true, "FALSE": true,
}

// Lex tokenizes the input, returning an error with position on any
// character it does not understand. Outside string literals the input
// is ASCII: identifiers are ASCII letters, digits and '_', and any other
// byte is an unexpected character at its offset.
func Lex(input string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case isSpace(c):
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case isLetter(c) || c == '_':
			start := i
			for i < n && isIdentChar(input[i]) {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, Token{Kind: TokKeyword, Text: upper, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: start})
			}
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(input[i+1])):
			start := i
			seenDot := false
			for i < n {
				ch := input[i]
				if isDigit(ch) {
					i++
				} else if ch == '.' && !seenDot && i+1 < n && isDigit(input[i+1]) {
					seenDot = true
					i++
				} else {
					break
				}
			}
			toks = append(toks, Token{Kind: TokNumber, Text: input[start:i], Pos: start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string literal at offset %d", start)
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Pos: start})
		default:
			start := i
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<>", "<=", ">=", "!=":
				if two == "!=" {
					two = "<>"
				}
				toks = append(toks, Token{Kind: TokSymbol, Text: two, Pos: start})
				i += 2
				continue
			}
			switch c {
			case '(', ')', ',', '.', ';', '=', '<', '>', '+', '-', '*', '/':
				toks = append(toks, Token{Kind: TokSymbol, Text: input[start : start+1], Pos: start})
				i++
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", input[i:i+1], i)
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}

func isSpace(c byte) bool { return strings.IndexByte(" \t\n\v\f\r", c) >= 0 }

func isLetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isIdentChar(c byte) bool { return isLetter(c) || isDigit(c) || c == '_' }
