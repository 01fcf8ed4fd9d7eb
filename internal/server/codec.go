package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The query-answer codec. /batch and /query replies are appended byte by
// byte instead of going through encoding/json: a reply is mostly ID lists
// that appendIDs has already rendered as JSON, and encoding/json would
// re-validate and compact every one of them (json.RawMessage) before
// writing it. The bytes are exactly what json.NewEncoder(w).Encode writes
// for the same value — field order, omitempty, HTML-escaped strings and the
// trailing newline — which the package's differential test and
// FuzzBatchCodec check against encoding/json itself. A coordinator reads
// shard replies back with scanBatch, which copies each ID list verbatim, so
// answers cross the tier without being decoded or re-encoded. /batch
// requests are decoded query by query (readBatch), so an over-long batch
// is refused before the rest of its body is read.

// replyChunk bounds the bytes a batch reply holds before handing them to
// the writer, so a reply is streamed rather than built whole.
const replyChunk = 32 << 10

// appendIDs appends the JSON encoding of ids, byte for byte what
// json.Marshal writes: nil is null, empty is [], order is untouched.
func appendIDs(dst []byte, ids []int) []byte {
	if ids == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(id), 10)
	}
	return append(dst, ']')
}

// appendString appends s as a JSON string. Strings are rare in a reply
// (errors, the generation tag, shard URLs), so they go through
// encoding/json's own escaper, which a string cannot make fail.
func appendString(dst []byte, s string) []byte {
	b, _ := json.Marshal(s)
	return append(dst, b...)
}

// appendKey appends a member key (with its quotes and colon), preceded by a
// comma unless it is the first member of the object opened at dst[open].
func appendKey(dst []byte, open int, key string) []byte {
	if len(dst) > open+1 {
		dst = append(dst, ',')
	}
	return append(dst, key...)
}

// appendResult appends r as encoding/json encodes a Result, splicing IDs
// verbatim.
func appendResult(dst []byte, r Result) []byte {
	open := len(dst)
	dst = append(dst, '{')
	if r.Alias != nil {
		dst = strconv.AppendBool(appendKey(dst, open, `"alias":`), *r.Alias)
	}
	if len(r.IDs) > 0 {
		dst = append(appendKey(dst, open, `"ids":`), r.IDs...)
	}
	if r.Err != "" {
		dst = appendString(appendKey(dst, open, `"error":`), r.Err)
	}
	return append(dst, '}')
}

// writeBatch writes resp as encoding/json encodes a BatchResponse, handing
// w at most replyChunk bytes at a time unless one result is longer.
func writeBatch(w io.Writer, resp BatchResponse) error {
	buf := make([]byte, 0, replyChunk)
	buf = append(buf, `{"results":`...)
	if resp.Results == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, r := range resp.Results {
			// Hand over what is buffered when r might not fit, so the
			// buffer grows only for a result longer than a chunk.
			if len(buf)+len(r.IDs)+2*len(r.Err)+32 > cap(buf) {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendResult(buf, r)
		}
		buf = append(buf, ']')
	}
	if resp.Generation != "" {
		buf = appendString(append(buf, `,"generation":`...), resp.Generation)
	}
	if resp.Unanswered != 0 {
		buf = strconv.AppendInt(append(buf, `,"unanswered":`...), int64(resp.Unanswered), 10)
	}
	if len(resp.Partial) > 0 {
		buf = append(buf, `,"partial":[`...)
		for i, p := range resp.Partial {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(append(buf, `{"shard":`...), int64(p.Shard), 10)
			buf = appendString(append(buf, `,"url":`...), p.URL)
			buf = strconv.AppendInt(append(buf, `,"queries":`...), int64(p.Queries), 10)
			buf = appendString(append(buf, `,"error":`...), p.Err)
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	_, err := w.Write(append(buf, "}\n"...))
	return err
}

// errTooMany reports a batch request with more queries than the limit.
var errTooMany = errors.New("server: batch exceeds limit")

// readBatch decodes a /batch request from d query by query, failing with
// errTooMany as soon as query maxBatch+1 begins, before the rest of the
// body is read. Keys match and values decode by encoding/json's rules, as
// a whole-body Decode would.
func readBatch(d *json.Decoder, maxBatch int, req *batchRequest) error {
	t, err := d.Token()
	if err != nil || t == nil { // null leaves the request empty
		return err
	}
	if t != json.Delim('{') {
		return fmt.Errorf("request is %v, not an object", t)
	}
	for d.More() {
		if t, err = d.Token(); err != nil {
			return err
		}
		switch key, _ := t.(string); {
		case strings.EqualFold(key, "backend"):
			err = d.Decode(&req.Backend)
		case strings.EqualFold(key, "queries"):
			req.Queries, err = readQueries(d, maxBatch)
		default:
			var skip json.RawMessage
			err = d.Decode(&skip)
		}
		if err != nil {
			return err
		}
	}
	_, err = d.Token()
	return err
}

func readQueries(d *json.Decoder, maxBatch int) ([]Query, error) {
	t, err := d.Token()
	if err != nil || t == nil {
		return nil, err
	}
	if t != json.Delim('[') {
		return nil, fmt.Errorf("queries is %v, not an array", t)
	}
	qs := []Query{}
	for d.More() {
		if len(qs) == maxBatch {
			return nil, fmt.Errorf("%w of %d queries", errTooMany, maxBatch)
		}
		var q Query
		if err := d.Decode(&q); err != nil {
			return nil, err
		}
		qs = append(qs, q)
	}
	_, err = d.Token()
	return qs, err
}

// scanBatch reads a /batch reply: exactly the members writeBatch writes,
// in any order and with any whitespace between tokens. Every reply it
// accepts, encoding/json accepts too and decodes to a value writeBatch
// re-encodes to the same bytes. ID lists must be null or compact integer
// arrays, as appendIDs writes them, and are copied verbatim. Unknown or
// repeated members and nulls anywhere else are refused, so a shard that
// writes anything else fails loudly instead of being misread.
func scanBatch(body []byte) (*BatchResponse, error) {
	batchMembers := []string{"results", "generation", "unanswered", "partial"}
	resultMembers := []string{"alias", "ids", "error"}
	shardErrorMembers := []string{"shard", "url", "queries", "error"}
	s := &scanner{b: body}
	out := &BatchResponse{}
	err := s.object(batchMembers, func(k string) (err error) {
		switch k {
		case "results":
			if s.lit("null") {
				return nil
			}
			out.Results = []Result{}
			return s.array(func() error {
				var r Result
				err := s.object(resultMembers, func(k string) (err error) {
					switch k {
					case "alias":
						v := s.lit("true")
						if !v && !s.lit("false") {
							return s.fail("true or false")
						}
						r.Alias = &v
					case "ids":
						r.IDs, err = s.ids()
					case "error":
						r.Err, err = s.str()
					}
					return err
				})
				out.Results = append(out.Results, r)
				return err
			})
		case "generation":
			out.Generation, err = s.str()
		case "unanswered":
			out.Unanswered, err = s.int()
		case "partial":
			out.Partial = []ShardError{}
			err = s.array(func() error {
				var p ShardError
				err := s.object(shardErrorMembers, func(k string) (err error) {
					switch k {
					case "shard":
						p.Shard, err = s.int()
					case "url":
						p.URL, err = s.str()
					case "queries":
						p.Queries, err = s.int()
					case "error":
						p.Err, err = s.str()
					}
					return err
				})
				out.Partial = append(out.Partial, p)
				return err
			})
		}
		return err
	})
	if err == nil && s.peek() != 0 {
		err = s.fail("end of reply")
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scanner walks one reply body.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) fail(what string) error {
	return fmt.Errorf("server: malformed reply at byte %d: expected %s", s.i, what)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *scanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (s *scanner) eat(c byte) bool {
	if s.peek() == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) lit(word string) bool {
	s.peek()
	if bytes.HasPrefix(s.b[s.i:], []byte(word)) {
		s.i += len(word)
		return true
	}
	return false
}

// object reads an object whose members are all named in keys, calling
// member for each; member consumes the value.
func (s *scanner) object(keys []string, member func(k string) error) error {
	if !s.eat('{') {
		return s.fail("object")
	}
	if s.eat('}') {
		return nil
	}
	var seen uint
	for {
		raw, plain, err := s.quoted()
		if err != nil {
			return err
		}
		k := -1
		for i, name := range keys {
			if string(raw[1:len(raw)-1]) == name {
				k = i
			}
		}
		if !plain || k < 0 || seen&(1<<k) != 0 {
			return s.fail(fmt.Sprintf("a member of %q, each at most once", keys))
		}
		seen |= 1 << k
		if !s.eat(':') {
			return s.fail("colon")
		}
		if err := member(keys[k]); err != nil {
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

// array reads an array, calling elem for each element.
func (s *scanner) array(elem func() error) error {
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

// quoted advances over a string and returns it with its quotes, and
// whether its contents are ASCII with no escapes and no bytes below 0x20,
// which read the same unquoted.
func (s *scanner) quoted() (raw []byte, plain bool, err error) {
	if s.peek() != '"' {
		return nil, false, s.fail("string")
	}
	start := s.i
	plain = true
	for s.i++; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start:s.i], plain, nil
		case c == '\\':
			plain = false
			s.i++
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	return nil, false, s.fail("end of string")
}

// str reads a string. Escapes, control bytes and non-ASCII text are
// unquoted by encoding/json, so invalid UTF-8 turns into U+FFFD as it
// would there.
func (s *scanner) str() (string, error) {
	raw, plain, err := s.quoted()
	if err != nil {
		return "", err
	}
	if plain {
		return string(raw[1 : len(raw)-1]), nil
	}
	var v string
	if json.Unmarshal(raw, &v) != nil {
		return "", s.fail("valid string")
	}
	return v, nil
}

// digits advances over an integer in JSON syntax, -?(0|[1-9][0-9]*),
// and reports whether there was one.
func (s *scanner) digits() bool {
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start && (s.b[start] != '0' || s.i == start+1)
}

// int reads an integer that fits an int.
func (s *scanner) int() (int, error) {
	s.peek()
	start := s.i
	if !s.digits() {
		return 0, s.fail("integer")
	}
	v, err := strconv.Atoi(string(s.b[start:s.i]))
	if err != nil {
		return 0, s.fail("integer in range")
	}
	return v, nil
}

// ids reads an ID list: null or a compact array of integers. It returns a
// copy of the bytes, so a cached answer does not pin the reply.
func (s *scanner) ids() (json.RawMessage, error) {
	s.peek()
	start := s.i
	if !s.lit("null") {
		if s.i == len(s.b) || s.b[s.i] != '[' {
			return nil, s.fail("ID list")
		}
		s.i++
		if s.i < len(s.b) && s.b[s.i] == ']' {
			s.i++
		} else {
			for {
				if !s.digits() {
					return nil, s.fail("integer")
				}
				if s.i == len(s.b) || (s.b[s.i] != ',' && s.b[s.i] != ']') {
					return nil, s.fail("comma or end of compact ID list")
				}
				s.i++
				if s.b[s.i-1] == ']' {
					break
				}
			}
		}
	}
	return append(json.RawMessage(nil), s.b[start:s.i]...), nil
}
