package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// oddStrings hold every class of character a JSON string writer treats
// apart: the short escapes, another control byte, the HTML three, the
// two JavaScript line separators, an invalid UTF-8 byte and plain
// multi-byte UTF-8.
var oddStrings = []string{
	"", "run", "tab\there", "line\nbreak\r", "\"quoted\"", `back\slash`, "<a&b>",
	"\x01\x1f\x7f", "\b\f", "é✓ 😀", "\u2028\u2029", "bad \xff utf8",
}

func sampleRequests() []*Request {
	reqs := []*Request{
		{ID: 1, Verb: "ping"},
		{ID: 42, Session: "s0", Verb: "run", TraceID: "00112233aabbccdd", ParentSpan: "1a2b3c4d-9", Args: []string{"tb0", "p0", "4"}},
		{ID: 7, Session: "s0", Verb: "apply", Files: map[string]string{"b.v": "module b;\nendmodule\n", "a.v": "<&>"},
			Top: "top", PGAS: 4, CheckpointEvery: 500, Blob: []byte{0, 1, 2, 0xff}, Epoch: 3},
		{ID: 1<<64 - 1, Verb: "create", PGAS: -1, Args: []string{}, Files: map[string]string{}, Blob: []byte{}},
	}
	for i, s := range oddStrings {
		reqs = append(reqs, &Request{ID: uint64(i), Session: s, Verb: s, TraceID: s, ParentSpan: s,
			Args: []string{s, s}, Files: map[string]string{s: s}, Top: s})
	}
	return reqs
}

func sampleResponses() []*Response {
	resps := []*Response{
		{ID: 1, OK: true},
		{ID: 42, OK: true, Output: "  run tb0 p0 4: 4 cycles\n"},
		{ID: 7, Error: "boom & bust", Code: CodeOverloaded, RetryAfterMs: 25, MovedTo: "unix:/run/ls2.sock",
			Data: json.RawMessage(`{"acked_seq":9}`)},
		{ID: 8, OK: true, Data: json.RawMessage(`{"status":"ok","reasons":["a b","é"],"n":-1.5e3,"x":null,"t":true}`)},
		{ID: 9, OK: true, Data: json.RawMessage("{\n  \"indented\": [1, 2]\n}")}, // rewritten by json.Marshal
		{ID: 10, OK: true, Data: json.RawMessage(`{"html":"<b>"}`)},              // escaped by json.Marshal
		{ID: 11, OK: true, Data: json.RawMessage(`"\u2028"`)},
		{ID: 12, RetryAfterMs: -5},
	}
	for i, s := range oddStrings {
		resps = append(resps, &Response{ID: uint64(i), Output: s, Error: s, Code: s, MovedTo: s})
	}
	return resps
}

// TestCodecMatchesEncodingJSON: every sample encodes to json.Marshal's
// bytes and reads back as json.Unmarshal reads those bytes, without
// deferring where the line holds nothing the scanner leaves alone.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	for _, r := range sampleRequests() {
		line := checkEncode(t, r)
		var got Request
		if !scanRequest(line, &got) {
			if r.PGAS >= 0 {
				t.Errorf("scanner deferred its own line %s", line)
			}
			continue
		}
		checkRequest(t, line, &got)
	}
	for _, r := range sampleResponses() {
		line := checkEncode(t, r)
		var got Response
		event, ok := scanReply(line, &got)
		if !ok {
			if r.RetryAfterMs >= 0 {
				t.Errorf("scanner deferred its own line %s", line)
			}
			continue
		}
		checkReply(t, line, event, &got)
	}
	if _, err := EncodeLine(&Response{Data: json.RawMessage(`{"x":`)}); err == nil {
		t.Error("a response with invalid Data encoded")
	}
}

// checkEncode holds EncodeLine of v to json.Marshal and returns the line
// without its newline.
func checkEncode(t *testing.T, v message) []byte {
	t.Helper()
	want, werr := json.Marshal(v)
	got, err := EncodeLine(v)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%+v: codec error %v, encoding/json error %v", v, err, werr)
	}
	if err != nil {
		return nil
	}
	if !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("codec wrote\n  %s\nencoding/json\n  %s", got, want)
	}
	return want
}

func checkRequest(t *testing.T, line []byte, got *Request) {
	t.Helper()
	var want Request
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("scanner read %q, which encoding/json refuses: %v", line, err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("line %q:\nscanner       %#v\nencoding/json %#v", line, *got, want)
	}
}

func checkReply(t *testing.T, line []byte, event bool, got *Response) {
	t.Helper()
	var in struct {
		Ev string  `json:"ev"`
		ID *uint64 `json:"id"`
		Response
	}
	if err := json.Unmarshal(line, &in); err != nil {
		t.Fatalf("scanner read %q, which encoding/json refuses: %v", line, err)
	}
	if want := in.Ev != "" || in.ID == nil; event != want {
		t.Fatalf("line %q: event %v, encoding/json says %v", line, event, want)
	}
	if event {
		return
	}
	in.Response.ID = *in.ID
	if !reflect.DeepEqual(*got, in.Response) {
		t.Fatalf("line %q:\nscanner       %#v\nencoding/json %#v", line, *got, in.Response)
	}
}

// FuzzWireEncode: a Request and a Response built from fuzzed strings,
// numbers, bytes and Data encode to json.Marshal's bytes, or fail where
// it fails.
func FuzzWireEncode(f *testing.F) {
	for i, s := range oddStrings {
		f.Add(s, oddStrings[(i+3)%len(oddStrings)], uint64(i)*0x9e3779b97f4a7c15, int64(i-5), []byte(s), []byte(`{"k":"`+s+`"}`))
	}
	f.Add("s0", "run", uint64(1<<63), int64(-1<<63), []byte{}, []byte(" [1, {\"a\" : null}] "))
	f.Fuzz(func(t *testing.T, s, u string, n uint64, m int64, blob, data []byte) {
		set := func(bit uint) bool { return n>>bit&1 == 1 }
		pick := func(bit uint, v string) string {
			if set(bit) {
				return v
			}
			return ""
		}
		req := &Request{ID: n, Session: pick(0, s), Verb: u, TraceID: pick(1, u), ParentSpan: pick(2, s+u),
			Top: pick(3, s), PGAS: int(m), CheckpointEvery: n >> 7, Epoch: uint64(m), Blob: blob}
		if set(4) {
			req.Args = []string{s, u, s + u}[:n%4]
		}
		if set(5) {
			req.Files = map[string]string{s: u, u: s, "top.v": s + u}
		}
		checkEncode(t, req)
		resp := &Response{ID: n, OK: set(6), Output: s, Error: pick(8, u), Code: pick(9, s),
			RetryAfterMs: m, MovedTo: pick(10, u), Data: data}
		checkEncode(t, resp)
	})
}

// FuzzWireDecode: a line the scanner reads, encoding/json reads to the
// same value (and the same event verdict); a line it leaves alone is
// decoded, or refused with the error text, by encoding/json.
func FuzzWireDecode(f *testing.F) {
	for _, r := range sampleRequests() {
		line, _ := json.Marshal(r)
		f.Add(line)
	}
	for _, r := range sampleResponses() {
		line, _ := json.Marshal(r)
		f.Add(line)
	}
	for _, line := range []string{
		`{"ev":"span","id":3,"sid":"ab-3","name":"request","attrs":{"ok":true,"verb":"run"}}`,
		`{"ev":"span","sid":"ab-3"}`, `{"id":1,"ev":""}`,
		` { "id" : 5 , "verb" : "ping" } `, `{"id":5,"verb":"ping","extra":[1,2.5e-3,{"a":[]}]}`,
		`{"ID":5,"verb":"ping"}`, `{"id":5,"id":6}`, `{"id":-1}`, `{"id":1.0}`, `{"id":01}`,
		`{"id":18446744073709551616}`, `{"verb":null}`, `{"args":null}`, `{"args":[1]}`,
		`{"verb":"\ud83d\ude00"}`, `{"verb":"\u00e9\/"}`, `{"blob":"AA\r\nEC"}`, `{"blob":"!"}`,
		`{"data":{"a" : 1 }}`, `{"data":null,"id":0}`, `{"id":2}x`, `{not json`, `[]`, `{}`, ``,
		`{"v\u0065rb":"ping"}`, "{\"verb\":\"\xff\"}", `{"ok":tru}`, `{"files":{"a":"1","a":"2"}}`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var req Request
		if scanRequest(line, &req) {
			checkRequest(t, line, &req)
		}
		var resp Response
		if event, ok := scanReply(line, &resp); ok {
			checkReply(t, line, event, &resp)
		}
		_, err := decodeRequest(line)
		werr := json.Unmarshal(line, new(Request))
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("line %q: codec error %v, encoding/json error %v", line, err, werr)
		}
	})
}

// BenchmarkWireCodec: encoding and decoding the serve workloads' request
// (`run tb0 p0 4`, as the client stamps it) and its reply, by the codec
// and, for reference, by encoding/json.
func BenchmarkWireCodec(b *testing.B) {
	req := &Request{ID: 12345, Session: "s0", Verb: "run", TraceID: "9f86d081884c7d65",
		ParentSpan: "3c2a9b1e-4f2", Args: []string{"tb0", "p0", "4"}}
	resp := &Response{ID: 12345, OK: true, Output: strings.Repeat("x", 40) + "\n"}
	reqLine, _ := EncodeLine(req)
	respLine, _ := EncodeLine(resp)
	for _, bc := range []struct {
		name string
		run  func()
	}{
		{"request/encode", func() { EncodeLine(req) }},
		{"request/decode", func() { decodeRequest(reqLine) }},
		{"reply/encode", func() { EncodeLine(resp) }},
		{"reply/decode", func() { DecodeReply(respLine, new(Response)) }},
		{"request/encode/encoding-json", func() { json.Marshal(req) }},
		{"request/decode/encoding-json", func() { json.Unmarshal(reqLine, new(Request)) }},
		{"reply/encode/encoding-json", func() { json.Marshal(resp) }},
		{"reply/decode/encoding-json", func() { json.Unmarshal(respLine, new(Response)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.run()
			}
		})
	}
}
