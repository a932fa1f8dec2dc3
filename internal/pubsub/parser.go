package pubsub

import "fmt"

// Parse compiles subscription-language source text into a Filter.
//
// Grammar:
//
//	expr      := or
//	or        := and ( '||' and )*
//	and       := unary ( '&&' unary )*
//	unary     := '!' unary | primary
//	primary   := '(' expr ')' | 'true' | 'false' | predicate
//	predicate := ident cmpop literal
//	           | ident 'in' '[' literal ( ',' literal )* ']'
//	           | ident 'contains' string
//	           | ident 'startswith' string
//	           | ident 'exists'
//	cmpop     := '==' | '!=' | '<' | '<=' | '>' | '>='
//	literal   := string | number | 'true' | 'false'
//
// Identifiers may be dotted (`stock.symbol`). The pseudo attribute `topic`
// matches the event topic. `&&` binds tighter than `||`.
func Parse(src string) (Filter, error) {
	p := &parser{lx: lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	f, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.cur.kind != tokEOF {
		return nil, fmt.Errorf("filter: unexpected %s at offset %d", p.cur.kind, p.cur.pos)
	}
	return f, nil
}

// MustParse is Parse for compile-time-constant filters in tests and
// examples; it panics on error.
func MustParse(src string) Filter {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

type parser struct {
	lx  lexer
	cur token
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.cur = t
	return nil
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.cur.kind != k {
		return token{}, fmt.Errorf("filter: expected %s, found %s at offset %d", k, p.cur.kind, p.cur.pos)
	}
	t := p.cur
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

func (p *parser) parseOr() (Filter, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	kids := []Filter{left}
	for p.cur.kind == tokOr {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	return Or(kids...), nil
}

func (p *parser) parseAnd() (Filter, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	kids := []Filter{left}
	for p.cur.kind == tokAnd {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	return And(kids...), nil
}

func (p *parser) parseUnary() (Filter, error) {
	if p.cur.kind == tokNot {
		if err := p.advance(); err != nil {
			return nil, err
		}
		kid, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not(kid), nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Filter, error) {
	switch p.cur.kind {
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		f, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return f, nil
	case tokBool:
		b := p.cur.b
		if err := p.advance(); err != nil {
			return nil, err
		}
		if b {
			return MatchAll(), nil
		}
		return MatchNone(), nil
	case tokIdent:
		return p.parsePredicate()
	default:
		return nil, fmt.Errorf("filter: expected predicate or '(', found %s at offset %d", p.cur.kind, p.cur.pos)
	}
}

func (p *parser) parsePredicate() (Filter, error) {
	key, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	switch p.cur.kind {
	case tokEq, tokNeq, tokLt, tokLe, tokGt, tokGe:
		op := cmpOpFor(p.cur.kind)
		if err := p.advance(); err != nil {
			return nil, err
		}
		val, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		// `topic == "t"` canonicalises to the topic filter so that
		// TopicOf recognises parsed topic subscriptions.
		if key.text == "topic" && op == opEq && val.Kind() == KindString {
			return topicFilter{topic: val.Str()}, nil
		}
		return cmpFilter{key: key.text, op: op, val: val}, nil
	case tokIn:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLBracket); err != nil {
			return nil, err
		}
		var vals []Value
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if p.cur.kind == tokComma {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
		return inFilter{key: key.text, vals: vals}, nil
	case tokContains:
		if err := p.advance(); err != nil {
			return nil, err
		}
		s, err := p.expect(tokString)
		if err != nil {
			return nil, err
		}
		return containsFilter{key: key.text, sub: s.str}, nil
	case tokStartsWith:
		if err := p.advance(); err != nil {
			return nil, err
		}
		s, err := p.expect(tokString)
		if err != nil {
			return nil, err
		}
		return startsWithFilter{key: key.text, prefix: s.str}, nil
	case tokExists:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return existsFilter{key: key.text}, nil
	default:
		return nil, fmt.Errorf("filter: expected operator after %q, found %s at offset %d", key.text, p.cur.kind, p.cur.pos)
	}
}

func cmpOpFor(k tokKind) cmpOp {
	switch k {
	case tokEq:
		return opEq
	case tokNeq:
		return opNeq
	case tokLt:
		return opLt
	case tokLe:
		return opLe
	case tokGt:
		return opGt
	case tokGe:
		return opGe
	default:
		return 0
	}
}

func (p *parser) parseLiteral() (Value, error) {
	switch p.cur.kind {
	case tokString:
		v := String(p.cur.str)
		return v, p.advance()
	case tokNumber:
		v := Num(p.cur.num)
		return v, p.advance()
	case tokBool:
		v := Bool(p.cur.b)
		return v, p.advance()
	default:
		return Value{}, fmt.Errorf("filter: expected literal, found %s at offset %d", p.cur.kind, p.cur.pos)
	}
}
