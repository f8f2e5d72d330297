// Package query implements Smokescreen's small analytical query language.
// Queries follow the paper's model: a frame-level detection UDF wrapped in
// an aggregate, executed under a set of destructive interventions:
//
//	SELECT AVG(count(car)) FROM night-street USING mask-rcnn SAMPLE 0.1
//	SELECT SUM(count(car)) FROM ua-detrac USING yolov4 RESOLUTION 320
//	SELECT COUNT(*) FROM ua-detrac WHERE count(car) >= 3 USING yolov4
//	SELECT MAX(count(car)) FROM ua-detrac USING yolov4 QUANTILE 0.99
//	SELECT AVG(count(car)) FROM small SAMPLE 0.2 REMOVE person,face
//	SELECT AVG(count(car)) FROM small NOISE 0.1
//	SELECT AVG(count(car)) FROM small BLUR 7 QUANTIZE 32 OCCLUDE 0.2
//
// Clauses may appear in any order after FROM. Keywords are
// case-insensitive; dataset, model and class names are lowercase.
package query

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"smokescreen/internal/degrade"
	"smokescreen/internal/estimate"
	"smokescreen/internal/scene"
)

// Predicate is the optional COUNT filter: count(Class) Op Value.
type Predicate struct {
	Class scene.Class
	Op    string // one of >=, >, <=, <, =, !=
	Value float64
}

// Eval applies the predicate to a per-frame count.
func (p *Predicate) Eval(count float64) bool {
	switch p.Op {
	case ">=":
		return count >= p.Value
	case ">":
		return count > p.Value
	case "<=":
		return count <= p.Value
	case "<":
		return count < p.Value
	case "=", "==":
		return count == p.Value
	case "!=":
		return count != p.Value
	default:
		return false
	}
}

// Query is a parsed analytical query.
type Query struct {
	Agg       estimate.Agg
	Class     scene.Class // class counted by the detection UDF
	Dataset   string
	Model     string     // empty: system default for the dataset
	Predicate *Predicate // COUNT only
	Setting   degrade.Setting
	Delta     float64 // risk, default 0.05
	R         float64 // extreme quantile, default 0.99
}

// Params returns the estimator parameters the query requests.
func (q *Query) Params() estimate.Params {
	return estimate.Params{Delta: q.Delta, R: q.R}
}

// String renders the query back to (canonical) query-language syntax.
func (q *Query) String() string {
	var b strings.Builder
	if q.Agg == estimate.COUNT {
		fmt.Fprintf(&b, "SELECT COUNT(*) FROM %s", q.Dataset)
		if q.Predicate != nil {
			fmt.Fprintf(&b, " WHERE count(%s) %s %g", q.Predicate.Class, q.Predicate.Op, q.Predicate.Value)
		}
	} else {
		fmt.Fprintf(&b, "SELECT %s(count(%s)) FROM %s", q.Agg, q.Class, q.Dataset)
	}
	if q.Model != "" {
		fmt.Fprintf(&b, " USING %s", q.Model)
	}
	// The axis clauses come from the registry, in canonical axis order:
	// a new axis renders here the moment it registers a Clause.
	for _, clause := range degrade.Clauses() {
		if v := clause.Render(q.Setting); v != "" {
			fmt.Fprintf(&b, " %s %s", clause.Keyword, v)
		}
	}
	return b.String()
}

// lexer state.
type parser struct {
	tokens []string
	pos    int
}

// Parse parses a query string.
func Parse(input string) (*Query, error) {
	p := &parser{tokens: tokenize(input)}
	q := &Query{Delta: 0.05, R: 0.99, Setting: degrade.Setting{SampleFraction: 1}}

	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if err := p.parseAggregate(q); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.next("dataset name")
	if err != nil {
		return nil, err
	}
	q.Dataset = name

	for !p.done() {
		keyword := strings.ToUpper(p.tokens[p.pos])
		p.pos++
		var err error
		switch keyword {
		case "WHERE":
			err = p.parseWhere(q)
		case "USING":
			q.Model, err = p.next("model name")
		case "REMOVE":
			err = p.parseRemove(q)
		case "CONFIDENCE":
			var pct float64
			pct, err = p.nextFloat("confidence percent")
			if err == nil {
				if pct <= 0 || pct >= 100 {
					err = fmt.Errorf("query: confidence %v out of (0,100)", pct)
				} else {
					q.Delta = 1 - pct/100
				}
			}
		case "QUANTILE":
			q.R, err = p.nextFloat("quantile")
			if err == nil && (q.R <= 0 || q.R >= 1) {
				err = fmt.Errorf("query: quantile %v out of (0,1)", q.R)
			}
		default:
			// Numeric axis clauses (SAMPLE, RESOLUTION, NOISE, ...) come
			// from the degrade registry: registering an axis with a
			// Clause makes it parseable here with no parser change.
			clause, ok := degrade.ClauseFor(keyword)
			if !ok || clause.Set == nil {
				return nil, fmt.Errorf("query: unexpected token %q", keyword)
			}
			var v float64
			v, err = p.nextFloat(clause.Arg)
			if err == nil {
				err = clause.Set(v, &q.Setting)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if q.Agg == estimate.COUNT && q.Predicate == nil {
		return nil, fmt.Errorf("query: COUNT(*) requires a WHERE clause")
	}
	if q.Agg != estimate.COUNT && q.Predicate != nil {
		return nil, fmt.Errorf("query: WHERE is only supported with COUNT(*)")
	}
	return q, nil
}

// parseAggregate handles "AVG ( count ( car ) )" and "COUNT ( * )".
func (p *parser) parseAggregate(q *Query) error {
	name, err := p.next("aggregate function")
	if err != nil {
		return err
	}
	agg, err := estimate.ParseAgg(strings.ToUpper(name))
	if err != nil {
		return err
	}
	q.Agg = agg
	if err := p.expect("("); err != nil {
		return err
	}
	if agg == estimate.COUNT {
		if err := p.expect("*"); err != nil {
			return err
		}
		return p.expect(")")
	}
	cls, err := p.parseCountUDF()
	if err != nil {
		return err
	}
	q.Class = cls
	return p.expect(")")
}

// parseCountUDF handles "count ( car )".
func (p *parser) parseCountUDF() (scene.Class, error) {
	fn, err := p.next("detection UDF")
	if err != nil {
		return 0, err
	}
	if strings.ToLower(fn) != "count" {
		return 0, fmt.Errorf("query: unsupported UDF %q (only count(<class>))", fn)
	}
	if err := p.expect("("); err != nil {
		return 0, err
	}
	name, err := p.next("object class")
	if err != nil {
		return 0, err
	}
	cls, err := scene.ParseClass(strings.ToLower(name))
	if err != nil {
		return 0, err
	}
	return cls, p.expect(")")
}

// parseWhere handles "count ( car ) >= 3".
func (p *parser) parseWhere(q *Query) error {
	cls, err := p.parseCountUDF()
	if err != nil {
		return err
	}
	op, err := p.next("comparison operator")
	if err != nil {
		return err
	}
	switch op {
	case ">=", ">", "<=", "<", "=", "==", "!=":
	default:
		return fmt.Errorf("query: unsupported operator %q", op)
	}
	value, err := p.nextFloat("predicate value")
	if err != nil {
		return err
	}
	q.Predicate = &Predicate{Class: cls, Op: op, Value: value}
	return nil
}

// parseRemove handles "person , face" (commas already split by the lexer).
// The classes are kept in name order: removal is a set operation, so
// "REMOVE person,face" and "REMOVE face,person" are one query — same
// String, same artifact key, same profile bytes on every surface.
func (p *parser) parseRemove(q *Query) error {
	for {
		name, err := p.next("restricted class")
		if err != nil {
			return err
		}
		cls, err := scene.ParseClass(strings.ToLower(name))
		if err != nil {
			return err
		}
		q.Setting.Restricted = append(q.Setting.Restricted, cls)
		if p.done() || p.tokens[p.pos] != "," {
			slices.SortFunc(q.Setting.Restricted, func(a, b scene.Class) int {
				return strings.Compare(a.String(), b.String())
			})
			return nil
		}
		p.pos++
	}
}

func (p *parser) done() bool { return p.pos >= len(p.tokens) }

func (p *parser) next(what string) (string, error) {
	if p.done() {
		return "", fmt.Errorf("query: expected %s, got end of input", what)
	}
	tok := p.tokens[p.pos]
	p.pos++
	return tok, nil
}

func (p *parser) nextFloat(what string) (float64, error) {
	tok, err := p.next(what)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, fmt.Errorf("query: %s: %q is not a number", what, tok)
	}
	return v, nil
}

func (p *parser) expect(tok string) error {
	got, err := p.next(fmt.Sprintf("%q", tok))
	if err != nil {
		return err
	}
	if got != tok {
		return fmt.Errorf("query: expected %q, got %q", tok, got)
	}
	return nil
}

func (p *parser) expectKeyword(keyword string) error {
	got, err := p.next(keyword)
	if err != nil {
		return err
	}
	if !strings.EqualFold(got, keyword) {
		return fmt.Errorf("query: expected %s, got %q", keyword, got)
	}
	return nil
}

// tokenize splits the input into words, parentheses, commas, operators and
// the star token.
func tokenize(input string) []string {
	var tokens []string
	var current strings.Builder
	flush := func() {
		if current.Len() > 0 {
			tokens = append(tokens, current.String())
			current.Reset()
		}
	}
	runes := []rune(input)
	for i := 0; i < len(runes); i++ {
		ch := runes[i]
		switch {
		case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r':
			flush()
		case ch == '(' || ch == ')' || ch == ',' || ch == '*':
			flush()
			tokens = append(tokens, string(ch))
		case ch == '>' || ch == '<' || ch == '=' || ch == '!':
			flush()
			op := string(ch)
			if i+1 < len(runes) && runes[i+1] == '=' {
				op += "="
				i++
			}
			tokens = append(tokens, op)
		default:
			current.WriteRune(ch)
		}
	}
	flush()
	return tokens
}
