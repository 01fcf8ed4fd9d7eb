package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// encodingJSON is the reference every reply is held to: what the handlers
// wrote when they encoded with encoding/json.
func encodingJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chunkRecorder records the size of every write it is handed.
type chunkRecorder struct {
	bytes.Buffer
	writes []int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return c.Buffer.Write(p)
}

func codecBytes(t testing.TB, resp BatchResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeBatch(&buf, resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkCodec holds the codec to encoding/json on resp: the batch reply,
// each result as a /query reply, and a scan of the reply.
func checkCodec(t testing.TB, resp BatchResponse) {
	t.Helper()
	got, want := codecBytes(t, resp), encodingJSON(t, resp)
	if !bytes.Equal(got, want) {
		t.Fatalf("batch reply diverges from encoding/json\ngot  %q\nwant %q", got, want)
	}
	for _, r := range resp.Results {
		if got, want := append(appendResult(nil, r), '\n'), encodingJSON(t, r); !bytes.Equal(got, want) {
			t.Fatalf("query reply diverges from encoding/json\ngot  %q\nwant %q", got, want)
		}
	}
	if !checkScan(t, got) {
		t.Fatalf("scanner refused a reply the codec wrote: %q", got)
	}
}

// checkScan holds the scanner to encoding/json on one reply: whatever it
// accepts, encoding/json must accept, and both readings must re-encode to
// the same bytes — which is what a coordinator relaying a shard's answers
// writes. It reports whether the scanner accepted the reply.
func checkScan(t testing.TB, reply []byte) bool {
	t.Helper()
	got, err := scanBatch(reply)
	if err != nil {
		return false
	}
	var want BatchResponse
	if err := json.Unmarshal(reply, &want); err != nil {
		t.Fatalf("scanner accepted a reply encoding/json rejects (%v): %q", err, reply)
	}
	if a, b := codecBytes(t, *got), encodingJSON(t, want); !bytes.Equal(a, b) {
		t.Fatalf("scanned reply re-encodes differently\nscanner       %q\nencoding/json %q\nreply %q", a, b, reply)
	}
	return true
}

var awkwardStrings = []string{
	`p 9 out of range [0,3)`,
	`<script>alert("x & y")</script>`,
	`quote " and back\slash`,
	"naïve Ünïcödé ✓ 日本語",
	"line\u2028separator\u2029paragraph",
	"invalid \xff\xfe utf-8 \xc3",
	"controls \x00\x01\b\f\n\r\t\x1f\x7f",
}

// TestCodecMatchesEncodingJSON is the differential test of the reply
// codec against encoding/json: server answers to generated DefaultMix
// batches, then hand-built replies covering every field and string shape.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	s, ix, _ := newTestServer(t, Options{})
	var base []int
	for p := 0; p < ix.NumPointers; p += 3 {
		base = append(base, p)
	}
	opts := BenchOptions{Base: base, NumObjects: ix.NumObjects, BatchSize: 256, Mix: DefaultMix}
	big := BatchResponse{}
	for i := 0; i < 8; i++ {
		qs := GenQueries(rand.New(rand.NewSource(BatchSeed(3, i))), &opts)
		qs = append(qs, Query{Op: "pointsto", P: intp(ix.NumPointers)}, Query{Op: "batch"}, Query{Op: "aliases"})
		resp, err := s.answer(context.Background(), "default", qs, false)
		if err != nil {
			t.Fatal(err)
		}
		checkCodec(t, resp)
		big.Results = append(big.Results, resp.Results...)
		big.Generation = resp.Generation
	}

	// A reply several chunks long reaches the writer in bounded pieces.
	var rec chunkRecorder
	if err := writeBatch(&rec, big); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Bytes(), encodingJSON(t, big)) {
		t.Fatal("chunked reply diverges from encoding/json")
	}
	if len(rec.writes) < 2 {
		t.Fatalf("a %d-byte reply went out in %d write(s)", rec.Len(), len(rec.writes))
	}
	longest := 0
	for _, r := range big.Results {
		longest = max(longest, len(appendResult(nil, r)))
	}
	for _, n := range rec.writes {
		if n > replyChunk+longest+1 {
			t.Fatalf("write of %d bytes exceeds the chunk bound %d", n, replyChunk+longest+1)
		}
	}

	yes, no := true, false
	for _, msg := range awkwardStrings {
		checkCodec(t, BatchResponse{
			Results:    []Result{{Alias: &yes}, {Alias: &no}, {IDs: appendIDs(nil, nil)}, {IDs: appendIDs(nil, []int{})}, {IDs: appendIDs(nil, []int{-3, 0, 7, 1 << 40})}, {Err: msg}, {}},
			Generation: msg,
			Unanswered: 2,
			Partial:    []ShardError{{Shard: 1, URL: "http://h/" + msg, Queries: 3, Err: msg}, {}},
		})
	}
	checkCodec(t, BatchResponse{})
	checkCodec(t, BatchResponse{Results: []Result{}})
	checkCodec(t, BatchResponse{Results: []Result{{}}, Unanswered: -1, Partial: []ShardError{}})

	for _, ids := range [][]int{nil, {}, {0}, {5, 3, 9}, {-1, 1 << 62}} {
		want, _ := json.Marshal(ids)
		if got := appendIDs(nil, ids); !bytes.Equal(got, want) {
			t.Errorf("appendIDs(%#v) = %s, json.Marshal %s", ids, got, want)
		}
	}
}

// TestScanBatch covers the shard-reply scanner: codec replies round-trip
// exactly, whitespace and member order are free, and malformed, unknown or
// non-canonical replies are refused rather than misread.
func TestScanBatch(t *testing.T) {
	yes := true
	resp := BatchResponse{
		Results:    []Result{{Alias: &yes}, {IDs: appendIDs(nil, nil)}, {IDs: appendIDs(nil, []int{})}, {IDs: appendIDs(nil, []int{4, 0, -2})}, {Err: "x <&>   ü"}},
		Generation: "00ff@3",
		Unanswered: 1,
		Partial:    []ShardError{{Shard: 1, URL: "http://s1", Queries: 2, Err: "refused"}},
	}
	reply := codecBytes(t, resp)
	got, err := scanBatch(reply)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, resp) {
		t.Fatalf("scanned %+v, want %+v", *got, resp)
	}
	if again := codecBytes(t, *got); !bytes.Equal(again, reply) {
		t.Fatalf("round trip diverges\n%q\n%q", again, reply)
	}

	for _, ok := range []string{
		" { \"results\" : [ { \"ids\" : [1,2] , \"alias\" : false } ] , \"generation\" : \"g\" }\n",
		`{"results":null}`,
		`{"results":[{"ids":[-0,10]}],"unanswered":-0}`,
		`{"results":[{"error":"a\"b\\cé😀\u003c"}]}`,
		`{"partial":[{"url":"u","shard":2}],"results":[]}`,
	} {
		if !checkScan(t, []byte(ok)) {
			t.Errorf("scanner refused %s", ok)
		}
	}
	for _, bad := range []string{
		``,
		`null`,
		`[]`,
		`{"results":[{"ids":[1,2}]}`,
		`{"results":[{"ids":[1, 2]}]}`,
		`{"results":[{"ids":[1.5]}]}`,
		`{"results":[{"ids":[01]}]}`,
		`{"results":[{"ids":[1,]}]}`,
		`{"results":[{"ids":"1"}]}`,
		`{"results":[{"alias":null}]}`,
		`{"results":[{"alias":tru}]}`,
		`{"results":[null]}`,
		`{"results":[],"results":[]}`,
		`{"results":[{"ids":[1],"ids":[2]}]}`,
		`{"results":[],"partial":[],"partial":[]}`,
		`{"results":[],"extra":1}`,
		`{"Results":[]}`,
		`{"res\u0075lts":[]}`,
		`{"results":[{"IDS":[1]}]}`,
		`{"results":[{"error":"ctl` + "\x01" + `"}]}`,
		`{"results":[{"error":"bad \x"}]}`,
		`{"results":[]} trailing`,
		`{"results":[],"unanswered":1e3}`,
		`{"results":[],"unanswered":99999999999999999999}`,
		`{"results":[]`,
		`{"results":[{"ids":[1]`,
		`{"results":[{"error":"unterminated`,
	} {
		if _, err := scanBatch([]byte(bad)); err == nil {
			t.Errorf("scanner accepted %q", bad)
		}
	}
}

// TestReadBatchMatchesDecode checks the streaming request decoder against
// a whole-body encoding/json Decode on well-formed requests.
func TestReadBatchMatchesDecode(t *testing.T) {
	for _, body := range []string{
		`{"backend":"b","queries":[{"op":"isalias","p":1,"q":2},{"op":"pointedby","o":0}]}`,
		`{"queries":[{"op":"aliases","p":3}],"backend":"late"}`,
		`{"BACKEND":"folded","Queries":[{"OP":"pointsto","P":4}],"unknown":{"x":[1]}}`,
		`{"queries":[]}`,
		`{"queries":null,"backend":null}`,
		`{}`,
		`null`,
		`{"queries":[null,{}]} trailing bytes are not read`,
	} {
		var want batchRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&want); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		var got batchRequest
		if err := readBatch(json.NewDecoder(strings.NewReader(body)), 8, &got); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streamed %+v, Decode %+v", body, got, want)
		}
	}
	for _, body := range []string{`[]`, `"x"`, `{"queries":{}}`, `{"queries":[1]}`, `{"backend":1}`, `{"queries":[`} {
		var req batchRequest
		if err := readBatch(json.NewDecoder(strings.NewReader(body)), 8, &req); err == nil {
			t.Errorf("%s: decoded without error", body)
		}
	}
}

// FuzzBatchCodec drives both halves of the codec against encoding/json:
// replies built from the arguments must encode to encoding/json's bytes,
// and arbitrary bytes read by the scanner must mean what encoding/json
// reads in them.
func FuzzBatchCodec(f *testing.F) {
	yes := true
	f.Add(encodingJSON(f, BatchResponse{
		Results:    []Result{{Alias: &yes}, {IDs: json.RawMessage(`[1,2,3]`)}, {IDs: json.RawMessage(`null`)}, {Err: "e"}},
		Generation: "ab@1", Unanswered: 1,
		Partial: []ShardError{{Shard: 1, URL: "http://x", Queries: 1, Err: "down"}},
	}), "p 9 out of range [0,3)", "00ff@3", []byte{1, 2, 3, 4}, 0, uint8(0x3f))
	for i, s := range awkwardStrings {
		f.Add([]byte(`{"results":[{"error":`+string(appendString(nil, s))+`}]}`), s, s, []byte{byte(i)}, i, uint8(i*37))
	}
	f.Add([]byte(` {"unanswered":-0, "results":[{"ids":[-0,1]}]} `), "", "", []byte{}, -1, uint8(0xff))
	f.Fuzz(func(t *testing.T, reply []byte, msg, gen string, idBytes []byte, unanswered int, shape uint8) {
		var ids []int
		for i := 0; i+1 < len(idBytes); i += 2 {
			ids = append(ids, int(int16(binary.LittleEndian.Uint16(idBytes[i:]))))
		}
		resp := BatchResponse{Generation: gen, Unanswered: unanswered}
		if shape&0x80 == 0 {
			resp.Results = []Result{}
		}
		alias := shape&0x02 != 0
		for bit, r := range []Result{
			{IDs: appendIDs(nil, ids)},
			{Alias: &alias},
			{IDs: appendIDs(nil, nil)},
			{IDs: appendIDs(nil, []int{})},
			{Err: msg},
			{Alias: &alias, IDs: appendIDs(nil, ids), Err: msg},
		} {
			if shape&(1<<bit) != 0 {
				resp.Results = append(resp.Results, r)
			}
		}
		if shape&0x40 != 0 {
			resp.Partial = []ShardError{{Shard: unanswered, URL: gen, Queries: len(ids), Err: msg}}
		}
		checkCodec(t, resp)
		checkScan(t, reply)
	})
}
