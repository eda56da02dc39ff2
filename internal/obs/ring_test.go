package obs

import (
	"slices"
	"testing"
)

func TestRingNumbersAndEvicts(t *testing.T) {
	r := NewRing[int](3)
	for v := 1; v <= 3; v++ {
		if _, evicted := r.Push(v * 10); evicted {
			t.Fatalf("push %d evicted from a ring that was not full", v)
		}
	}
	if old, evicted := r.Push(40); !evicted || old != 10 {
		t.Fatalf("push into a full ring evicted %d, %v; want 10, true", old, evicted)
	}
	for _, c := range []struct {
		since uint64
		vals  []int
		first uint64
	}{
		{0, []int{20, 30, 40}, 2}, // 10 was number 1 and is gone
		{2, []int{30, 40}, 3},
		{4, []int{}, 5},
		{9, []int{}, 10},
	} {
		vals, first := r.Since(c.since)
		if !slices.Equal(vals, c.vals) || vals == nil || (len(vals) > 0 && first != c.first) {
			t.Errorf("Since(%d) = %v from %d, want %v from %d", c.since, vals, first, c.vals, c.first)
		}
	}
	if r.Len() != 3 || r.Seq() != 4 {
		t.Errorf("Len %d Seq %d, want 3 and 4", r.Len(), r.Seq())
	}
}

func TestRingDeleteKeepsOrderAndRoom(t *testing.T) {
	r := NewRing[string](3)
	for _, v := range []string{"a", "b", "c", "d"} { // a is lapped
		r.Push(v)
	}
	r.Delete(func(v string) bool { return v == "c" })
	if vals, _ := r.Since(0); !slices.Equal(vals, []string{"b", "d"}) || r.Len() != 2 {
		t.Fatalf("after deleting c: %v (len %d), want [b d]", vals, r.Len())
	}
	if _, evicted := r.Push("e"); evicted {
		t.Fatal("a push into the room Delete made evicted a value")
	}
	if old, evicted := r.Push("f"); !evicted || old != "b" {
		t.Fatalf("full again: push evicted %q, %v; want the oldest, b", old, evicted)
	}
	if vals, _ := r.Since(0); !slices.Equal(vals, []string{"d", "e", "f"}) {
		t.Fatalf("ring holds %v, want [d e f]", vals)
	}
}

// Each span fanout gets its own line writer: two sessions writing
// chunked lines at the same time must not splice one's held chunk onto
// the other's.
func TestLineWriterPerStream(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{}, "p", nil, 0, nil, "", nil)
	a, b := NewFanout(), NewFanout()
	tel.AttachSinks(a)
	tel.AttachSinks(b)
	lineA := `{"ev":"span","sid":"a-1","trace":"aaaaaaaaaaaaaaa1","name":"left","wall_us":1}` + "\n"
	lineB := `{"ev":"span","sid":"b-1","trace":"bbbbbbbbbbbbbbb1","name":"right","wall_us":1}` + "\n"
	a.Write([]byte(lineA[:20]))
	b.Write([]byte(lineB[:30]))
	a.Write([]byte(lineA[20:]))
	b.Write([]byte(lineB[30:]))
	for trace, name := range map[string]string{"aaaaaaaaaaaaaaa1": "left", "bbbbbbbbbbbbbbb1": "right"} {
		if recs := tel.Store.Query(trace); len(recs) != 1 || recs[0].Name != name {
			t.Errorf("trace %s: %+v, want one %q span", trace, recs, name)
		}
	}
	if got := tel.Flight.Writes(); got != 2 {
		t.Errorf("flight recorder took %d lines, want 2", got)
	}
}
