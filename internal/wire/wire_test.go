package wire

import (
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The envelope's bytes are the protocol: these strings were produced by
// the parent commit's server.Request/server.Response and must never
// change, whatever is refactored around them.
func TestGoldenEnvelope(t *testing.T) {
	req := Request{
		ID: 7, Session: "s0", Verb: "apply", TraceID: "00112233aabbccdd", ParentSpan: "1a2b3c4d-9",
		Args: []string{"p0", "a b"}, Files: map[string]string{"top.v": "module top;\nendmodule\n"},
		Top: "top", PGAS: 4, CheckpointEvery: 500, Blob: []byte{0, 1, 2, 0xff}, Epoch: 3,
	}
	resp := Response{
		ID: 7, OK: false, Output: "line <1>\n", Error: "boom & bust", Code: CodeOverloaded,
		RetryAfterMs: 25, MovedTo: "unix:/run/ls2.sock", Data: json.RawMessage(`{"acked_seq":9}`),
	}
	for _, tc := range []struct {
		v    any
		want string
	}{
		{&req, `{"id":7,"session":"s0","verb":"apply","trace":"00112233aabbccdd","pspan":"1a2b3c4d-9","args":["p0","a b"],"files":{"top.v":"module top;\nendmodule\n"},"top":"top","pgas":4,"ckpt_every":500,"blob":"AAEC/w==","epoch":3}`},
		{&resp, `{"id":7,"ok":false,"output":"line \u003c1\u003e\n","error":"boom \u0026 bust","code":"overloaded","retry_after_ms":25,"moved_to":"unix:/run/ls2.sock","data":{"acked_seq":9}}`},
		{&Request{ID: 1, Verb: "ping"}, `{"id":1,"verb":"ping"}`},
		{&Response{ID: 1, OK: true}, `{"id":1,"ok":true}`},
	} {
		line, err := EncodeLine(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(line) != tc.want+"\n" {
			t.Errorf("envelope drifted:\n got %s want %s", line, tc.want)
		}
		back := reflect.New(reflect.TypeOf(tc.v).Elem()).Interface()
		if err := json.Unmarshal(line, back); err != nil || !reflect.DeepEqual(back, tc.v) {
			t.Errorf("round trip of %s: %+v (err %v)", tc.want, back, err)
		}
	}
}

func TestSplitAddr(t *testing.T) {
	for _, tc := range [][3]string{
		{"unix:/run/ls.sock", "unix", "/run/ls.sock"},
		{"tcp:host:9310", "tcp", "host:9310"},
		{"/tmp/ls.sock", "unix", "/tmp/ls.sock"},
		{"rel/ls.sock", "unix", "rel/ls.sock"},
		{":9310", "tcp", ":9310"},
		{"127.0.0.1:9310", "tcp", "127.0.0.1:9310"},
	} {
		if n, a := SplitAddr(tc[0]); n != tc[1] || a != tc[2] {
			t.Errorf("SplitAddr(%q) = %q, %q; want %q, %q", tc[0], n, a, tc[1], tc[2])
		}
	}
}

// EncodeLine and NewScanner must agree on the bound to the byte: the
// longest line one accepts is the longest the other produces.
func TestLineBoundAgrees(t *testing.T) {
	defer SetLimits(128*1024, WriteTimeout)()
	envelope := len(`{"id":0,"ok":false,"output":""}` + "\n")
	for _, n := range []int{maxLine - envelope, maxLine - envelope + 1} {
		line, err := EncodeLine(&Response{Output: strings.Repeat("x", n)})
		fits := n+envelope <= maxLine
		if (err == nil) != fits {
			t.Fatalf("EncodeLine of a %d-byte line: err %v, want fits=%v", n+envelope, err, fits)
		}
		if !fits {
			if !errors.Is(err, ErrTooLong) || !strings.Contains(err.Error(), strconv.Itoa(maxLine)) {
				t.Fatalf("oversize error %q does not wrap ErrTooLong and name the bound", err)
			}
			line = []byte(strings.Repeat("x", n+envelope-1) + "\n")
		}
		sc := NewScanner(strings.NewReader(string(line)))
		if sc.Scan() != fits || (sc.Err() == nil) != fits {
			t.Fatalf("scanner on a %d-byte line: err %v, want fits=%v", len(line), sc.Err(), fits)
		}
	}
}

// TestNoFifthTransport fails if any non-test package outside this one
// (bench/ aside: it is frozen and measures from outside) declares its
// own request envelope or parses the address syntax — the two things
// every hand-rolled transport before internal/wire started with.
func TestNoFifthTransport(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "bench" || rel == filepath.Join("internal", "wire") || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if n.Tag != nil && strings.Contains(n.Tag.Value, `json:"verb"`) {
					t.Errorf("%s: a struct field tagged json:\"verb\" — the envelope is wire.Request",
						fset.Position(n.Pos()))
				}
			case *ast.CallExpr:
				// strings.HasPrefix(x, "unix:"), TrimPrefix, CutPrefix, …: any
				// call handed the bare scheme is parsing an address.
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if s, _ := strconv.Unquote(lit.Value); s == "unix:" || s == "tcp:" {
							t.Errorf("%s: parses the %q address prefix — use wire.SplitAddr",
								fset.Position(n.Pos()), s)
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
