package main

import (
	"fmt"
	"strconv"
)

// A /batch response can run to a megabyte of IDs. Keeping every body until
// the run ends would make the benchmark's own buffers dominate the
// process's memory, and decoding each with encoding/json would take longer
// than the run. So the client digests each response as it arrives, with a
// small scanner for the response schema, and keeps only one digest per
// result; the check after the run compares those digests with digests of
// the reference index's answers.

// resultDigest folds one answer into a nonzero digest that does not depend
// on the order of the IDs (list order is unspecified).
func resultDigest(alias bool, ids []int) uint64 {
	var sum uint64
	for _, id := range ids {
		sum += mix64(uint64(id) + 0x9e3779b97f4a7c15)
	}
	return digestOf(alias, len(ids), sum)
}

func digestOf(alias bool, n int, idSum uint64) uint64 {
	a := uint64(n) << 1
	if alias {
		a |= 1
	}
	return mix64(a+idSum) | 1
}

// scanned is what the client keeps of one /batch response.
type scanned struct {
	res        []uint64 // per-result digest; 0 for a result carrying an error
	errs       []string // the errors, in order
	gen        string
	unanswered int
}

type scanner struct {
	b []byte
	i int
}

func (s *scanner) fail(what string) error {
	return fmt.Errorf("response byte %d: expected %s", s.i, what)
}

func (s *scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\n' || s.b[s.i] == '\r' || s.b[s.i] == '\t') {
		s.i++
	}
}

// next skips whitespace and reports the next byte (0 at the end).
func (s *scanner) next() byte {
	s.ws()
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

func (s *scanner) eat(c byte) bool {
	if s.next() == c {
		s.i++
		return true
	}
	return false
}

// str reads a JSON string, unquoting it only when it has escapes.
func (s *scanner) str() (string, error) {
	if !s.eat('"') {
		return "", s.fail("string")
	}
	start, esc := s.i, false
	for ; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case '\\':
			esc = true
			s.i++
		case '"':
			raw := s.b[start:s.i]
			s.i++
			if !esc {
				return string(raw), nil
			}
			return strconv.Unquote(`"` + string(raw) + `"`)
		}
	}
	return "", s.fail("closing quote")
}

func (s *scanner) int() (int, error) {
	s.ws()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	n, err := strconv.Atoi(string(s.b[start:s.i]))
	if err != nil {
		return 0, s.fail("integer")
	}
	return n, nil
}

func (s *scanner) lit(word string) bool {
	s.ws()
	if s.i+len(word) <= len(s.b) && string(s.b[s.i:s.i+len(word)]) == word {
		s.i += len(word)
		return true
	}
	return false
}

// skip passes over any JSON value.
func (s *scanner) skip() error {
	switch s.next() {
	case '"':
		_, err := s.str()
		return err
	case '{', '[':
		depth := 0
		for ; s.i < len(s.b); s.i++ {
			switch s.b[s.i] {
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					s.i++
					return nil
				}
			case '"':
				if _, err := s.str(); err != nil {
					return err
				}
				s.i--
			}
		}
		return s.fail("end of value")
	default:
		for s.i < len(s.b) && s.b[s.i] != ',' && s.b[s.i] != '}' && s.b[s.i] != ']' {
			s.i++
		}
		return nil
	}
}

// object calls field for each key of an object.
func (s *scanner) object(field func(key string) error) error {
	if !s.eat('{') {
		return s.fail("object")
	}
	if s.eat('}') {
		return nil
	}
	for {
		key, err := s.str()
		if err != nil {
			return err
		}
		if !s.eat(':') {
			return s.fail("colon")
		}
		if err := field(key); err != nil {
			return err
		}
		if s.eat('}') {
			return nil
		}
		if !s.eat(',') {
			return s.fail("comma or end of object")
		}
	}
}

// array calls elem for each element of an array; null is an empty array.
func (s *scanner) array(elem func() error) error {
	if s.lit("null") {
		return nil
	}
	if !s.eat('[') {
		return s.fail("array")
	}
	if s.eat(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if s.eat(']') {
			return nil
		}
		if !s.eat(',') {
			return s.fail("comma or end of array")
		}
	}
}

// scanBatch digests a server.BatchResponse body.
func scanBatch(body []byte) (*scanned, error) {
	s := &scanner{b: body}
	out := &scanned{}
	err := s.object(func(key string) error {
		switch key {
		case "results":
			return s.array(func() error {
				var alias, isErr bool
				var n int
				var sum uint64
				var msg string
				err := s.object(func(key string) error {
					switch key {
					case "alias":
						if s.lit("true") {
							alias = true
							return nil
						}
						if s.lit("false") {
							return nil
						}
						return s.fail("boolean")
					case "ids":
						return s.array(func() error {
							id, err := s.int()
							n++
							sum += mix64(uint64(id) + 0x9e3779b97f4a7c15)
							return err
						})
					case "error":
						isErr = true
						var err error
						msg, err = s.str()
						return err
					}
					return s.skip()
				})
				if isErr {
					out.res = append(out.res, 0)
					out.errs = append(out.errs, msg)
				} else {
					out.res = append(out.res, digestOf(alias, n, sum))
				}
				return err
			})
		case "generation":
			var err error
			out.gen, err = s.str()
			return err
		case "unanswered":
			var err error
			out.unanswered, err = s.int()
			return err
		}
		return s.skip()
	})
	if err == nil && s.next() != 0 {
		err = s.fail("end of response")
	}
	return out, err
}
