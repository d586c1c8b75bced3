// Package turtle implements a parser and serializer for the Turtle and
// N-Triples RDF syntaxes, covering the constructs needed by the library's
// examples and workloads: prefix directives, prefixed names, IRI references,
// blank node labels and anonymous nodes, literals with language tags and
// datatypes, numeric and boolean shorthand, predicate lists (";"), object
// lists (",") and comments.
package turtle

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF             tokenKind = iota
	tokIRIRef                    // <...>
	tokPName                     // prefix:local or prefix: or :local
	tokBlank                     // _:label
	tokLiteral                   // "..." (value carries unescaped form)
	tokLangTag                   // @en
	tokDoubleCaret               // ^^
	tokDot                       // .
	tokSemicolon                 // ;
	tokComma                     // ,
	tokLBracket                  // [
	tokRBracket                  // ]
	tokPrefixDirective           // @prefix or PREFIX
	tokBaseDirective             // @base or BASE
	tokA                         // the keyword 'a'
	tokNumber                    // integer/decimal/double literal shorthand
	tokBoolean                   // true / false
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIRIRef:
		return "IRI"
	case tokPName:
		return "prefixed name"
	case tokBlank:
		return "blank node"
	case tokLiteral:
		return "literal"
	case tokLangTag:
		return "language tag"
	case tokDoubleCaret:
		return "^^"
	case tokDot:
		return "'.'"
	case tokSemicolon:
		return "';'"
	case tokComma:
		return "','"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokPrefixDirective:
		return "@prefix"
	case tokBaseDirective:
		return "@base"
	case tokA:
		return "'a'"
	case tokNumber:
		return "number"
	case tokBoolean:
		return "boolean"
	default:
		return "unknown token"
	}
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

type lexer struct {
	input string
	pos   int
	line  int
	col   int
}

func newLexer(input string) *lexer {
	return &lexer{input: input, line: 1, col: 1}
}

func (l *lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("turtle: line %d col %d: %s", l.line, l.col, fmt.Sprintf(format, args...))
}

func (l *lexer) peek() rune {
	if l.pos >= len(l.input) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(l.input[l.pos:])
	return r
}

func (l *lexer) advance() rune {
	if l.pos >= len(l.input) {
		return -1
	}
	r, w := utf8.DecodeRuneInString(l.input[l.pos:])
	l.pos += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *lexer) skipSpaceAndComments() {
	for {
		r := l.peek()
		if r == -1 {
			return
		}
		if unicode.IsSpace(r) {
			l.advance()
			continue
		}
		if r == '#' {
			for r != -1 && r != '\n' {
				r = l.advance()
			}
			continue
		}
		return
	}
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	r := l.peek()
	mk := func(k tokenKind, text string) token {
		return token{kind: k, text: text, line: line, col: col}
	}
	switch {
	case r == -1:
		return mk(tokEOF, ""), nil
	case r == '<':
		l.advance()
		var b strings.Builder
		for {
			r = l.advance()
			if r == -1 || r == '\n' {
				return token{}, l.errorf("unterminated IRI reference")
			}
			if r == '>' {
				return mk(tokIRIRef, b.String()), nil
			}
			if r == '\\' {
				n := l.advance()
				switch n {
				case 'u', 'U':
					// \uXXXX / \UXXXXXXXX numeric escape
					width := 4
					if n == 'U' {
						width = 8
					}
					var hex strings.Builder
					for i := 0; i < width; i++ {
						h := l.advance()
						if h == -1 {
							return token{}, l.errorf("truncated unicode escape in IRI")
						}
						hex.WriteRune(h)
					}
					var cp rune
					if _, err := fmt.Sscanf(hex.String(), "%x", &cp); err != nil {
						return token{}, l.errorf("bad unicode escape %q in IRI", hex.String())
					}
					b.WriteRune(cp)
				default:
					b.WriteRune('\\')
					b.WriteRune(n)
				}
				continue
			}
			b.WriteRune(r)
		}
	case r == '"' || r == '\'':
		quote := r
		l.advance()
		// check for long quote form """ / '''
		long := false
		if l.peek() == quote {
			l.advance()
			if l.peek() == quote {
				l.advance()
				long = true
			} else {
				// empty string literal
				return mk(tokLiteral, ""), nil
			}
		}
		var b strings.Builder
		for {
			r = l.advance()
			if r == -1 {
				return token{}, l.errorf("unterminated string literal")
			}
			if !long && r == '\n' {
				return token{}, l.errorf("newline in short string literal")
			}
			if r == quote {
				if !long {
					return mk(tokLiteral, b.String()), nil
				}
				if l.peek() == quote {
					l.advance()
					if l.peek() == quote {
						l.advance()
						return mk(tokLiteral, b.String()), nil
					}
					b.WriteRune(quote)
					b.WriteRune(quote)
					continue
				}
				b.WriteRune(quote)
				continue
			}
			if r == '\\' {
				n := l.advance()
				switch n {
				case 't':
					b.WriteRune('\t')
				case 'n':
					b.WriteRune('\n')
				case 'r':
					b.WriteRune('\r')
				case 'b':
					b.WriteRune('\b')
				case 'f':
					b.WriteRune('\f')
				case '"':
					b.WriteRune('"')
				case '\'':
					b.WriteRune('\'')
				case '\\':
					b.WriteRune('\\')
				case 'u', 'U':
					width := 4
					if n == 'U' {
						width = 8
					}
					var hex strings.Builder
					for i := 0; i < width; i++ {
						h := l.advance()
						if h == -1 {
							return token{}, l.errorf("truncated unicode escape")
						}
						hex.WriteRune(h)
					}
					var cp rune
					if _, err := fmt.Sscanf(hex.String(), "%x", &cp); err != nil {
						return token{}, l.errorf("bad unicode escape %q", hex.String())
					}
					b.WriteRune(cp)
				default:
					return token{}, l.errorf("unknown escape \\%c in string", n)
				}
				continue
			}
			b.WriteRune(r)
		}
	case r == '_':
		l.advance()
		if l.peek() != ':' {
			return token{}, l.errorf("expected ':' after '_' in blank node label")
		}
		l.advance()
		var b strings.Builder
		for isPNChar(l.peek()) {
			b.WriteRune(l.advance())
		}
		if b.Len() == 0 {
			return token{}, l.errorf("empty blank node label")
		}
		return mk(tokBlank, b.String()), nil
	case r == '@':
		l.advance()
		var b strings.Builder
		for isAlphaNum(l.peek()) || l.peek() == '-' {
			b.WriteRune(l.advance())
		}
		word := b.String()
		switch word {
		case "prefix":
			return mk(tokPrefixDirective, "@prefix"), nil
		case "base":
			return mk(tokBaseDirective, "@base"), nil
		case "":
			return token{}, l.errorf("empty language tag")
		default:
			return mk(tokLangTag, word), nil
		}
	case r == '^':
		l.advance()
		if l.peek() != '^' {
			return token{}, l.errorf("expected '^^'")
		}
		l.advance()
		return mk(tokDoubleCaret, "^^"), nil
	case r == '.':
		l.advance()
		return mk(tokDot, "."), nil
	case r == ';':
		l.advance()
		return mk(tokSemicolon, ";"), nil
	case r == ',':
		l.advance()
		return mk(tokComma, ","), nil
	case r == '[':
		l.advance()
		return mk(tokLBracket, "["), nil
	case r == ']':
		l.advance()
		return mk(tokRBracket, "]"), nil
	case r == '+' || r == '-' || unicode.IsDigit(r):
		var b strings.Builder
		b.WriteRune(l.advance())
		for unicode.IsDigit(l.peek()) || l.peek() == '.' || l.peek() == 'e' || l.peek() == 'E' {
			// a '.' followed by non-digit terminates the statement instead
			if l.peek() == '.' {
				save := l.pos
				l.advance()
				if !unicode.IsDigit(l.peek()) {
					l.pos = save
					break
				}
				b.WriteRune('.')
				continue
			}
			b.WriteRune(l.advance())
		}
		return mk(tokNumber, b.String()), nil
	default:
		// prefixed name, 'a', boolean, or bare directive keywords
		var b strings.Builder
		for isPNChar(l.peek()) || l.peek() == ':' {
			b.WriteRune(l.advance())
		}
		word := b.String()
		if word == "" {
			return token{}, l.errorf("unexpected character %q", r)
		}
		switch {
		case word == "a":
			return mk(tokA, "a"), nil
		case word == "true" || word == "false":
			return mk(tokBoolean, word), nil
		case strings.EqualFold(word, "PREFIX"):
			return mk(tokPrefixDirective, word), nil
		case strings.EqualFold(word, "BASE"):
			return mk(tokBaseDirective, word), nil
		case strings.Contains(word, ":"):
			return mk(tokPName, word), nil
		default:
			return token{}, l.errorf("unexpected word %q (missing prefix colon?)", word)
		}
	}
}

func isAlphaNum(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
}

// isPNChar reports whether r may appear inside a prefixed-name or blank-node
// local part. This is a pragmatic superset-free simplification of the Turtle
// PN_CHARS production covering common Linked Data identifiers.
func isPNChar(r rune) bool {
	return r == '_' || r == '-' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
