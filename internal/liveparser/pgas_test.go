package liveparser_test

import (
	"hash/fnv"
	"reflect"
	"sort"
	"sync"
	"testing"

	"livesim/internal/hdl/lexer"
	"livesim/internal/hdl/token"
	"livesim/internal/liveparser"
	"livesim/internal/pgas"
)

// TestPGASHashesPinned holds the fingerprints of every PGAS module to the
// values the three-lex implementation produced (commit bd5f937). Object
// cache keys and the .lso file names of an existing object directory are
// built from them, so a front-end change that moves one is a format change.
func TestPGASHashesPinned(t *testing.T) {
	pinned := []struct {
		module      string
		body, iface uint64
	}{
		{"fabric_16", 0xb81f774ff56afa1c, 0xc3de1555a44a506b},
		{"node_mem", 0xbdec5de2fc1163bc, 0x271d9d1d83567a50},
		{"pgas_1", 0xe946d9818ac066f0, 0xfe5fe1f0ef0db6fd},
		{"pgas_16", 0xbd34832f61830083, 0x6e3bff80233666b9},
		{"pgas_node", 0x1902197a091d6c90, 0xcfb9a0d195f25887},
		{"rv_core", 0x7a4dd72f64fe1381, 0x7bde53ad2ac08a96},
		{"stage_ex", 0x5d28e1d1fa634521, 0x6c3aeae6514cd0c6},
		{"stage_id", 0x9a270990793079e0, 0x8dbb085c3b81e056},
		{"stage_if", 0xa240942ae8c6d12f, 0xc76463996bbaf9fb},
		{"stage_mem", 0x519162fc3fe351e3, 0x20e2a33dcf2012f4},
		{"stage_wb", 0xf59dbb6f3c9aa4c0, 0x40ceb9bf052bd18f},
	}
	got := map[string]*liveparser.ModuleInfo{}
	for _, n := range []int{1, 16} {
		src := pgas.Source(n)
		a, err := liveparser.Analyze(src)
		if err != nil {
			t.Fatal(err)
		}
		for name, mi := range a.Modules {
			got[name] = mi
			body, iface := definitionHashes(src.Files[mi.File][mi.AST.Pos.Offset:mi.AST.End.Offset])
			if mi.BodyHash != body || mi.IfaceHash != iface {
				t.Errorf("%s: hashes %x %x, by definition %x %x", name, mi.BodyHash, mi.IfaceHash, body, iface)
			}
		}
	}
	if len(got) != len(pinned) {
		t.Errorf("%d modules analyzed, %d pinned", len(got), len(pinned))
	}
	for _, p := range pinned {
		mi := got[p.module]
		if mi == nil {
			t.Errorf("%s: not analyzed", p.module)
		} else if mi.BodyHash != p.body || mi.IfaceHash != p.iface {
			t.Errorf("%s: body %#x iface %#x, pinned %#x %#x", p.module, mi.BodyHash, mi.IfaceHash, p.body, p.iface)
		}
	}
}

// definitionHashes is the fingerprint definition written the slow way:
// FNV-1a over kind, text, NUL of the module text's tokens (the default
// lexer mode drops comments and whitespace); the interface hash stops
// after the header's `;`.
func definitionHashes(text string) (body, iface uint64) {
	bh, ih, inHeader := fnv.New64a(), fnv.New64a(), true
	for _, tok := range lexer.Tokenize("", text) {
		if tok.Kind == token.EOF {
			break
		}
		for _, h := range []interface{ Write([]byte) (int, error) }{bh, ih} {
			if h == ih && !inHeader {
				continue
			}
			h.Write([]byte{byte(tok.Kind)})
			h.Write([]byte(tok.Text))
			h.Write([]byte{0})
		}
		if tok.Kind == token.Semi {
			inHeader = false
		}
	}
	return bh.Sum64(), ih.Sum64()
}

// FuzzAnalyzeIncremental replaces the bytes of one PGAS file and analyzes
// the result on an Analyzer that has seen the design and on none: the same
// error, or the same fingerprints and macro dependencies per module and the
// same Compare against the base; then undoes the edit, which must parse
// nothing and give the base again.
func FuzzAnalyzeIncremental(f *testing.F) {
	base := pgas.Source(1)
	var names []string
	for name := range base.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		f.Add(uint8(i), base.Files[name])
	}
	f.Add(uint8(0), "module stage_ex (); endmodule") // a second definition
	f.Add(uint8(1), "`define X 1\nmodule m (input a); wire b = a & `X; endmodule")
	baseCold, err := liveparser.Analyze(base)
	if err != nil {
		f.Fatal(err)
	}
	// One Analyzer for every input of this process, as a session has: what
	// an earlier input left in it must not show in a later one's result.
	var mu sync.Mutex
	var z liveparser.Analyzer

	f.Fuzz(func(t *testing.T, which uint8, text string) {
		mu.Lock()
		defer mu.Unlock()
		baseWarm, err := z.Analyze(base)
		if err != nil {
			t.Fatal(err)
		}
		edited := liveparser.Source{Files: map[string]string{}}
		for name, body := range base.Files {
			edited.Files[name] = body
		}
		edited.Files[names[int(which)%len(names)]] = text

		warm, werr := z.Analyze(edited)
		cold, cerr := liveparser.Analyze(edited)
		if (werr == nil) != (cerr == nil) || (werr != nil && werr.Error() != cerr.Error()) {
			t.Fatalf("warm error %v, cold error %v", werr, cerr)
		}
		if werr == nil {
			if warm.FilesParsed > 1 {
				t.Errorf("one file edited, %d parsed", warm.FilesParsed)
			}
			if len(warm.Modules) != len(cold.Modules) {
				t.Fatalf("%d modules warm, %d cold", len(warm.Modules), len(cold.Modules))
			}
			for name, c := range cold.Modules {
				w := warm.Modules[name]
				if w == nil || w.BodyHash != c.BodyHash || w.IfaceHash != c.IfaceHash || !reflect.DeepEqual(w.MacroDeps, c.MacroDeps) {
					t.Fatalf("module %s: warm %+v, cold %+v", name, w, c)
				}
			}
			if dw, dc := liveparser.Compare(baseWarm, warm), liveparser.Compare(baseCold, cold); !reflect.DeepEqual(dw, dc) {
				t.Fatalf("diff against the base: warm %+v, cold %+v", dw, dc)
			}
		}

		back, err := z.Analyze(base)
		if err != nil {
			t.Fatal(err)
		}
		if back.FilesParsed != 0 {
			t.Errorf("undo parsed %d files", back.FilesParsed)
		}
		if d := liveparser.Compare(baseCold, back); !d.NoChange() {
			t.Errorf("undo is not the base: %+v", d)
		}
	})
}
