package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"livesim/internal/obs"
)

// The codec writes and reads the envelope without reflection. What it
// writes is byte for byte what encoding/json writes for the same value:
// fields in declaration order, omitempty honoured, map keys sorted, and
// strings through obs.AppendJSONString. It reads a line only when it
// can produce exactly what json.Unmarshal would, and otherwise defers
// the whole line to json.Unmarshal, so a line it does not handle —
// malformed, case-folded or repeated keys, a negative, fractional or
// overflowing number, a null where a value is owed, a surrogate escape,
// invalid UTF-8, nesting past maxDepth — is decoded, or refused with
// the error text, as it always was. FuzzWireEncode and FuzzWireDecode
// hold both halves to encoding/json.

// deferred, when set, sees each line the scanner hands to encoding/json.
// Only this package's tests set it, once, before anything reads it.
var deferred func(line []byte)

// message is what EncodeLine frames: a *Request or a *Response.
type message interface {
	// marshal returns what json.Marshal writes for the value, in a
	// buffer with room for the line's newline.
	marshal() ([]byte, error)
}

func (r *Request) marshal() ([]byte, error) { return r.marshalAs(r.ID), nil }

// marshalAs is marshal with id in place of r.ID.
func (r *Request) marshalAs(id uint64) []byte {
	n := 128 + len(r.Session) + len(r.Verb) + len(r.TraceID) + len(r.ParentSpan) + len(r.Top) + len(r.Blob)*4/3
	for _, a := range r.Args {
		n += len(a) + 3
	}
	for name, text := range r.Files {
		n += len(name) + len(text) + 6
	}
	b := make([]byte, 0, n)
	b = strconv.AppendUint(append(b, `{"id":`...), id, 10)
	if r.Session != "" {
		b = obs.AppendJSONString(append(b, `,"session":`...), r.Session)
	}
	b = obs.AppendJSONString(append(b, `,"verb":`...), r.Verb)
	if r.TraceID != "" {
		b = obs.AppendJSONString(append(b, `,"trace":`...), r.TraceID)
	}
	if r.ParentSpan != "" {
		b = obs.AppendJSONString(append(b, `,"pspan":`...), r.ParentSpan)
	}
	if len(r.Args) > 0 {
		b = append(b, `,"args":`...)
		sep := byte('[')
		for _, a := range r.Args {
			b = obs.AppendJSONString(append(b, sep), a)
			sep = ','
		}
		b = append(b, ']')
	}
	if len(r.Files) > 0 {
		b = append(b, `,"files":`...)
		sep := byte('{')
		names := make([]string, 0, len(r.Files))
		for name := range r.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			b = obs.AppendJSONString(append(b, sep), name)
			b = obs.AppendJSONString(append(b, ':'), r.Files[name])
			sep = ','
		}
		b = append(b, '}')
	}
	if r.Top != "" {
		b = obs.AppendJSONString(append(b, `,"top":`...), r.Top)
	}
	if r.PGAS != 0 {
		b = strconv.AppendInt(append(b, `,"pgas":`...), int64(r.PGAS), 10)
	}
	if r.CheckpointEvery != 0 {
		b = strconv.AppendUint(append(b, `,"ckpt_every":`...), r.CheckpointEvery, 10)
	}
	if len(r.Blob) > 0 {
		b = append(base64.StdEncoding.AppendEncode(append(b, `,"blob":"`...), r.Blob), '"')
	}
	if r.Epoch != 0 {
		b = strconv.AppendUint(append(b, `,"epoch":`...), r.Epoch, 10)
	}
	return append(b, '}')
}

// marshal leaves a response whose Data json.Marshal would rewrite
// (whitespace to drop, characters to escape) or refuse to json.Marshal
// whole.
func (r *Response) marshal() ([]byte, error) {
	if len(r.Data) > 0 && !canonicalRaw(r.Data) {
		return json.Marshal(r)
	}
	b := make([]byte, 0, 64+len(r.Output)+len(r.Error)+len(r.Code)+len(r.MovedTo)+len(r.Data))
	b = strconv.AppendUint(append(b, `{"id":`...), r.ID, 10)
	b = strconv.AppendBool(append(b, `,"ok":`...), r.OK)
	if r.Output != "" {
		b = obs.AppendJSONString(append(b, `,"output":`...), r.Output)
	}
	if r.Error != "" {
		b = obs.AppendJSONString(append(b, `,"error":`...), r.Error)
	}
	if r.Code != "" {
		b = obs.AppendJSONString(append(b, `,"code":`...), r.Code)
	}
	if r.RetryAfterMs != 0 {
		b = strconv.AppendInt(append(b, `,"retry_after_ms":`...), r.RetryAfterMs, 10)
	}
	if r.MovedTo != "" {
		b = obs.AppendJSONString(append(b, `,"moved_to":`...), r.MovedTo)
	}
	if len(r.Data) > 0 {
		b = append(append(b, `,"data":`...), r.Data...)
	}
	return append(b, '}'), nil
}

// canonicalRaw reports whether json.Marshal writes raw back as it is:
// valid JSON with no whitespace outside its strings and nothing inside
// them that it escapes ('<', '>', '&', U+2028, U+2029 — any 0xE2 lead
// byte is taken for one).
func canonicalRaw(raw []byte) bool {
	in := false
	for i := 0; i < len(raw); i++ {
		switch c := raw[i]; {
		case c == '<' || c == '>' || c == '&' || c == 0xe2:
			return false
		case c == '"':
			in = !in
		case in && c == '\\':
			i++
		case !in && (c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			return false
		}
	}
	return json.Valid(raw)
}

// decodeRequest decodes one request line, as json.Unmarshal would.
func decodeRequest(line []byte) (*Request, error) {
	req := new(Request)
	if scanRequest(line, req) {
		return req, nil
	}
	if deferred != nil {
		deferred(line)
	}
	*req = Request{}
	if err := json.Unmarshal(line, req); err != nil {
		return nil, err
	}
	return req, nil
}

// DecodeReply decodes one line a speaker sent a client into resp. The
// line is an event — a span or other stream line — when it has an "ev"
// member or no "id"; then resp holds nothing of use.
func DecodeReply(line []byte, resp *Response) (event bool, err error) {
	if event, ok := scanReply(line, resp); ok {
		return event, nil
	}
	if deferred != nil {
		deferred(line)
	}
	var in struct {
		Ev string  `json:"ev"`
		ID *uint64 `json:"id"`
		Response
	}
	if err := json.Unmarshal(line, &in); err != nil {
		return false, err
	}
	if in.Ev != "" || in.ID == nil {
		return true, nil
	}
	*resp = in.Response
	resp.ID = *in.ID
	return false, nil
}

// The request's and the reply's member names, in the order of the bits
// scanRequest and scanReply keep to refuse a repeated one.
var (
	requestKeys = []string{"id", "session", "verb", "trace", "pspan", "args", "files", "top", "pgas", "ckpt_every", "blob", "epoch"}
	replyKeys   = []string{"ev", "id", "ok", "output", "error", "code", "retry_after_ms", "moved_to", "data"}
)

// member's answers for a key that is none of the names.
const (
	unknownKey = -1 // encoding/json ignores the member
	deferKey   = -2 // a name seen before, or one encoding/json may match it to
)

func scanRequest(line []byte, r *Request) bool {
	s := lexer{b: line}
	var seen uint32
	return s.object(func(key []byte) bool {
		ok := false
		switch member(key, requestKeys, &seen) {
		case unknownKey:
			ok = s.skip(0)
		case 0:
			r.ID, ok = s.uint(math.MaxUint64)
		case 1:
			r.Session, ok = s.str()
		case 2:
			r.Verb, ok = s.str()
		case 3:
			r.TraceID, ok = s.str()
		case 4:
			r.ParentSpan, ok = s.str()
		case 5:
			r.Args, ok = s.strs()
		case 6:
			r.Files, ok = s.strMap()
		case 7:
			r.Top, ok = s.str()
		case 8:
			var n uint64
			n, ok = s.uint(math.MaxInt)
			r.PGAS = int(n)
		case 9:
			r.CheckpointEvery, ok = s.uint(math.MaxUint64)
		case 10:
			r.Blob, ok = s.base64()
		case 11:
			r.Epoch, ok = s.uint(math.MaxUint64)
		}
		return ok
	}) && s.end()
}

func scanReply(line []byte, r *Response) (event, ok bool) {
	s := lexer{b: line}
	var seen uint32
	var ev string
	ok = s.object(func(key []byte) bool {
		ok := false
		switch member(key, replyKeys, &seen) {
		case unknownKey:
			ok = s.skip(0)
		case 0:
			ev, ok = s.str()
		case 1:
			r.ID, ok = s.uint(math.MaxUint64)
		case 2:
			r.OK, ok = s.bool()
		case 3:
			r.Output, ok = s.str()
		case 4:
			r.Error, ok = s.str()
		case 5:
			r.Code, ok = s.str()
		case 6:
			var n uint64
			n, ok = s.uint(math.MaxInt64)
			r.RetryAfterMs = int64(n)
		case 7:
			r.MovedTo, ok = s.str()
		case 8:
			start := s.i
			if ok = s.skip(0); ok {
				r.Data = append(json.RawMessage(nil), s.b[start:s.i]...)
			}
		}
		return ok
	}) && s.end()
	return ev != "" || seen&(1<<1) == 0, ok
}

// maxDepth bounds the nesting the lexer skips through; deeper values
// are deferred.
const maxDepth = 32

// lexer reads JSON from b at i. Each reading method reports false
// where encoding/json might read the input otherwise.
type lexer struct {
	b []byte
	i int
}

func (s *lexer) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c, after any whitespace.
func (s *lexer) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether nothing but whitespace is left.
func (s *lexer) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// list reads open, items separated by commas, and close; item reads
// one item, after any whitespace.
func (s *lexer) list(open, close byte, item func() bool) bool {
	if !s.next(open) {
		return false
	}
	if s.next(close) {
		return true
	}
	for {
		s.ws()
		if !item() {
			return false
		}
		if !s.next(',') {
			return s.next(close)
		}
	}
}

// object reads an object, calling f with each member's key and the
// lexer at its value. A key must be plain ASCII with no escape: only
// then is it sure which field encoding/json matches it to.
func (s *lexer) object(f func(key []byte) bool) bool {
	return s.list('{', '}', func() bool {
		if s.i == len(s.b) || s.b[s.i] != '"' {
			return false
		}
		start := s.i + 1
		for s.i++; s.i < len(s.b) && s.b[s.i] != '"'; s.i++ {
			if c := s.b[s.i]; c < 0x20 || c == '\\' || c >= utf8.RuneSelf {
				return false
			}
		}
		if s.i == len(s.b) {
			return false
		}
		key := s.b[start:s.i]
		s.i++
		if !s.next(':') {
			return false
		}
		s.ws()
		return f(key)
	})
}

// member is the index of key in keys, marked in seen, or unknownKey or
// deferKey.
func member(key []byte, keys []string, seen *uint32) int {
	for i, k := range keys {
		if string(key) == k {
			if *seen&(1<<i) != 0 {
				return deferKey
			}
			*seen |= 1 << i
			return i
		}
	}
	for _, k := range keys {
		if bytes.EqualFold(key, []byte(k)) {
			return deferKey
		}
	}
	return unknownKey
}

// uint reads a non-negative integer no larger than max.
func (s *lexer) uint(max uint64) (uint64, bool) {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	digits := s.b[start:s.i]
	if len(digits) == 0 || len(digits) > 1 && digits[0] == '0' {
		return 0, false
	}
	n, err := strconv.ParseUint(string(digits), 10, 64)
	return n, err == nil && n <= max
}

func (s *lexer) bool() (v, ok bool) {
	if s.lit("true") {
		return true, true
	}
	return false, s.lit("false")
}

// lit consumes the literal w.
func (s *lexer) lit(w string) bool {
	if !bytes.HasPrefix(s.b[s.i:], []byte(w)) {
		return false
	}
	s.i += len(w)
	return true
}

func (s *lexer) str() (string, bool) {
	b, ok := s.strBytes()
	return string(b), ok
}

// strBytes reads a string: the line's own bytes when it has no escape,
// else a fresh copy with them undone. Control bytes, invalid UTF-8 and
// surrogate escapes are deferred.
func (s *lexer) strBytes() ([]byte, bool) {
	if s.i == len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	s.i++
	start := s.i
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c == '\\' || c >= utf8.RuneSelf:
			return s.unquote(start)
		case c < 0x20:
			return nil, false
		}
		s.i++
	}
	return nil, false
}

// unquote finishes a string that has escapes or non-ASCII bytes from
// s.i on.
func (s *lexer) unquote(start int) ([]byte, bool) {
	out := append(make([]byte, 0, s.i-start+16), s.b[start:s.i]...)
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return out, true
		case c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(s.b[s.i:])
			if r == utf8.RuneError && n == 1 {
				return nil, false
			}
			out = append(out, s.b[s.i:s.i+n]...)
			s.i += n
			continue
		case c != '\\':
			out = append(out, c)
			s.i++
			continue
		}
		if s.i+1 == len(s.b) {
			return nil, false
		}
		switch e := s.b[s.i+1]; e {
		case '"', '\\', '/':
			out = append(out, e)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			if s.i+6 > len(s.b) {
				return nil, false
			}
			r, err := strconv.ParseUint(string(s.b[s.i+2:s.i+6]), 16, 16)
			if err != nil || utf16.IsSurrogate(rune(r)) {
				return nil, false
			}
			out = utf8.AppendRune(out, rune(r))
			s.i += 4
		default:
			return nil, false
		}
		s.i += 2
	}
	return nil, false
}

// strs reads an array of strings.
func (s *lexer) strs() ([]string, bool) {
	out := make([]string, 0, 4)
	return out, s.list('[', ']', func() bool {
		v, ok := s.str()
		out = append(out, v)
		return ok
	})
}

// strMap reads an object of strings; a repeated key keeps its last
// value, as encoding/json's map decoding does.
func (s *lexer) strMap() (map[string]string, bool) {
	out := map[string]string{}
	return out, s.list('{', '}', func() bool {
		key, ok := s.str()
		if !ok || !s.next(':') {
			return false
		}
		s.ws()
		out[key], ok = s.str()
		return ok
	})
}

// base64 reads a string holding standard base64, decoded as
// encoding/json decodes a []byte.
func (s *lexer) base64() ([]byte, bool) {
	src, ok := s.strBytes()
	if !ok {
		return nil, false
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
	n, err := base64.StdEncoding.Decode(b, src)
	return b[:n], err == nil
}

// skip reads past one well-formed value of any kind. A string in it is
// read as str reads one, so it defers on what str defers on.
func (s *lexer) skip(depth int) bool {
	if s.i == len(s.b) || depth > maxDepth {
		return false
	}
	switch c := s.b[s.i]; {
	case c == '"':
		_, ok := s.strBytes()
		return ok
	case c == '{':
		return s.object(func([]byte) bool { return s.skip(depth + 1) })
	case c == '[':
		return s.list('[', ']', func() bool { return s.skip(depth + 1) })
	case c == '-' || '0' <= c && c <= '9':
		return s.skipNumber()
	}
	return s.lit("true") || s.lit("false") || s.lit("null")
}

// skipNumber reads past -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (s *lexer) skipNumber() bool {
	digits := func() int {
		start := s.i
		for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
			s.i++
		}
		return s.i - start
	}
	if s.b[s.i] == '-' {
		s.i++
	}
	first := s.i
	if n := digits(); n == 0 || n > 1 && s.b[first] == '0' {
		return false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if digits() == 0 {
			return false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if digits() == 0 {
			return false
		}
	}
	return true
}
