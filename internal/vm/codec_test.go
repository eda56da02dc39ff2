package vm

import (
	"reflect"
	"testing"
	"testing/quick"
)

func fullObject() *Object {
	m := Mask(16)
	return &Object{
		Key: "fifo#D=4,W=16", ModName: "fifo", SrcPath: "fifo.v#fifo",
		NumSlots: 12,
		Ports: []Port{
			{Name: "clk", Dir: In, Slot: 0, Mask: 1},
			{Name: "out", Dir: Out, Slot: 1, Mask: m},
		},
		Regs:   []Reg{{Name: "head", Cur: 2, Next: 3, Mask: Mask(2)}},
		Mems:   []Mem{{Name: "buf", Index: 0, Depth: 4, Mask: m}},
		Consts: []ConstInit{{Slot: 4, Value: 1}, {Slot: 5, Value: 0xFFFF}},
		Displays: []Display{
			{Format: "head=%d", Args: []uint32{2}},
			{Format: "plain", Args: nil},
		},
		Children: []Child{
			{InstName: "u0", ObjectKey: "leaf#W=8", Binds: []ChildBind{{ParentSlot: 1, ChildPort: 0}}},
		},
		Comb: []Instr{
			{Op: OpMemRd, Dst: 1, A: 2, B: 0},
			{Op: OpAdd, Dst: 6, A: 2, B: 4, Imm: Mask(2)},
			{Op: OpShlOr, Dst: 7, A: 2, B: 4, W: 3, Imm: m},
			{Op: OpAndEqI, Dst: 8, A: 2, B: 4, Imm: 3},
			{Op: OpAndEq, Dst: 9, A: 2, B: 5, C: 4},
		},
		Seq: []Instr{
			{Op: OpJz, A: 0, B: 3},
			{Op: OpMove, Dst: 3, A: 6},
			{Op: OpDisplay, Imm: 0},
			{Op: OpJne, A: 2, C: 4, B: 4},
		},
		Debug: []SlotDebug{{Name: "head", Slot: 2, Bits: 2}},
	}
}

func TestObjectCodecRoundTrip(t *testing.T) {
	o := fullObject()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	enc := EncodeObject(o)
	got, err := DecodeObject(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != o.Hash() {
		t.Error("round trip changed the content hash")
	}
	if got.Key != o.Key || got.SrcPath != o.SrcPath || got.NumSlots != o.NumSlots {
		t.Errorf("headers: %+v", got)
	}
	if len(got.Children) != 1 || got.Children[0].ObjectKey != "leaf#W=8" {
		t.Errorf("children %+v", got.Children)
	}
	if len(got.Displays) != 2 || got.Displays[0].Format != "head=%d" {
		t.Errorf("displays %+v", got.Displays)
	}
	if !reflect.DeepEqual(got.Comb, o.Comb) || !reflect.DeepEqual(got.Seq, o.Seq) {
		t.Errorf("code %v %v, want %v %v", got.Comb, got.Seq, o.Comb, o.Seq)
	}
	// Behavioural equivalence: run both.
	a, b := NewInstance(o), NewInstance(got)
	a.Slots[2], b.Slots[2] = 3, 3
	a.Mems[0][3], b.Mems[0][3] = 0xBEEF, 0xBEEF
	a.RunComb(nil)
	b.RunComb(nil)
	if a.Slots[1] != b.Slots[1] || a.Slots[1] != 0xBEEF {
		t.Errorf("decoded object misbehaves: %x vs %x", a.Slots[1], b.Slots[1])
	}
}

func TestObjectCodecDeterministic(t *testing.T) {
	a := EncodeObject(fullObject())
	b := EncodeObject(fullObject())
	if string(a) != string(b) {
		t.Error("encoding is not deterministic")
	}
}

func TestObjectCodecErrors(t *testing.T) {
	enc := EncodeObject(fullObject())
	// Truncations at every boundary-ish offset must error, not panic.
	for _, cut := range []int{0, 3, 4, 10, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeObject(enc[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xFF
	if _, err := DecodeObject(bad); err == nil {
		t.Error("bad magic accepted")
	}
	// Trailing garbage.
	if _, err := DecodeObject(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Corrupt a jump target so validation fires.
	valid := fullObject()
	valid.Seq[0].B = 99
	if _, err := DecodeObject(EncodeObject(valid)); err == nil {
		t.Error("invalid decoded object accepted")
	}
}

// TestDecodedSlotsAreChecked: every place an object file names a slot is
// checked before the object is accepted. Each mutation of fullObject points
// one reference past NumSlots; exec, Peek or the kernel would index with it.
func TestDecodedSlotsAreChecked(t *testing.T) {
	for _, c := range []struct {
		what string
		bad  func(o *Object)
	}{
		{"comb operand A", func(o *Object) { o.Comb[1].A = 12 }},
		{"comb operand B", func(o *Object) { o.Comb[1].B = 40 }},
		{"comb operand C", func(o *Object) { o.Comb[4].C = 12 }},
		{"comb destination", func(o *Object) { o.Comb[0].Dst = 12 }},
		{"seq branch operand", func(o *Object) { o.Seq[0].A = 99 }},
		{"seq jne operand C", func(o *Object) { o.Seq[3].C = 12 }},
		{"seq destination", func(o *Object) { o.Seq[1].Dst = 12 }},
		{"debug slot", func(o *Object) { o.Debug[0].Slot = 12 }},
		{"display arg", func(o *Object) { o.Displays[0].Args[0] = 12 }},
		{"bind parent slot", func(o *Object) { o.Children[0].Binds[0].ParentSlot = 12 }},
	} {
		o := fullObject()
		c.bad(o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s out of range: Validate accepts it", c.what)
		}
		if _, err := DecodeObject(EncodeObject(o)); err == nil {
			t.Errorf("%s out of range: DecodeObject accepts it", c.what)
		}
	}
	// Fields an op does not read as slots are not slots: a shift amount,
	// a memory index, a jump target.
	o := fullObject()
	o.Comb = append(o.Comb, Instr{Op: OpShlImm, Dst: 10, A: 2, B: 63, Imm: Mask(16)})
	if err := o.Validate(); err != nil {
		t.Errorf("literal shift taken for a slot: %v", err)
	}
}

// Property: random truncations never panic.
func TestObjectCodecTruncationProperty(t *testing.T) {
	enc := EncodeObject(fullObject())
	f := func(cut uint16) bool {
		n := int(cut) % len(enc)
		_, err := DecodeObject(enc[:n])
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
