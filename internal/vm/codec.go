package vm

import (
	"encoding/binary"
	"fmt"

	"livesim/internal/frame"
)

// Object files: the on-disk form of a compiled module, the reproduction's
// analog of the paper's per-module shared libraries ("/livesim/objs/...so"
// in Table II). A file is an internal/frame container — the header, then
// one record holding the object body, a deterministic little-endian
// encoding, so the same object always produces the same bytes and a
// flipped byte anywhere fails the CRC.
var objFormat = frame.Header{Magic: "LSO1", Min: 1, Max: 1}

type objEncoder struct{ buf []byte }

func (e *objEncoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *objEncoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *objEncoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// EncodeObject serializes an object into an object file (BaseAddr, a
// load-time property, is not included).
func EncodeObject(o *Object) []byte {
	e := &objEncoder{buf: make([]byte, 0, 1024+InstrBytes*(len(o.Comb)+len(o.Seq)))}
	e.str(o.Key)
	e.str(o.ModName)
	e.str(o.SrcPath)
	e.u32(o.NumSlots)

	e.u32(uint32(len(o.Ports)))
	for _, p := range o.Ports {
		e.str(p.Name)
		e.u32(uint32(p.Dir))
		e.u32(p.Slot)
		e.u64(p.Mask)
	}
	e.u32(uint32(len(o.Regs)))
	for _, r := range o.Regs {
		e.str(r.Name)
		e.u32(r.Cur)
		e.u32(r.Next)
		e.u64(r.Mask)
	}
	e.u32(uint32(len(o.Mems)))
	for _, m := range o.Mems {
		e.str(m.Name)
		e.u32(m.Index)
		e.u32(m.Depth)
		e.u64(m.Mask)
	}
	e.u32(uint32(len(o.Consts)))
	for _, c := range o.Consts {
		e.u32(c.Slot)
		e.u64(c.Value)
	}
	e.u32(uint32(len(o.Displays)))
	for _, d := range o.Displays {
		e.str(d.Format)
		e.u32(uint32(len(d.Args)))
		for _, a := range d.Args {
			e.u32(a)
		}
	}
	e.u32(uint32(len(o.Children)))
	for _, c := range o.Children {
		e.str(c.InstName)
		e.str(c.ObjectKey)
		e.u32(uint32(len(c.Binds)))
		for _, b := range c.Binds {
			e.u32(b.ParentSlot)
			e.u32(b.ChildPort)
		}
	}
	for _, code := range [][]Instr{o.Comb, o.Seq} {
		e.u32(uint32(len(code)))
		for _, in := range code {
			e.u32(uint32(in.Op) | uint32(in.W)<<8)
			e.u32(in.Dst)
			e.u32(in.A)
			e.u32(in.B)
			e.u32(in.C)
			e.u64(in.Imm)
		}
	}
	e.u32(uint32(len(o.Debug)))
	for _, d := range o.Debug {
		e.str(d.Name)
		e.u32(d.Slot)
		e.u32(uint32(d.Bits))
	}
	file := make([]byte, 0, frame.HeaderLen+frame.RecordHeaderLen+len(e.buf))
	return frame.AppendRecord(objFormat.Append(file), e.buf)
}

// objDecoder reads an object body. The first failure sticks: every read
// after it returns a zero value, and every count zero.
type objDecoder struct {
	buf []byte
	off int
	err error
}

func (d *objDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// take returns the next n bytes, or nil once the body is exhausted.
func (d *objDecoder) take(n int) []byte {
	if d.err == nil && n > len(d.buf)-d.off {
		d.fail("object file truncated at offset %d", d.off)
	}
	if d.err != nil {
		return nil
	}
	d.off += n
	return d.buf[d.off-n : d.off]
}

func (d *objDecoder) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *objDecoder) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *objDecoder) str() string {
	return string(d.take(int(d.count("string bytes", 1))))
}

// count reads the length of a run of items at least size bytes each,
// refusing one the rest of the body cannot hold before anything is
// allocated from it.
func (d *objDecoder) count(what string, size int) int {
	n := d.u32()
	if uint64(n)*uint64(size) > uint64(len(d.buf)-d.off) {
		d.fail("object file corrupt: %d %s", n, what)
		return 0
	}
	return int(n)
}

// DecodeObject parses an object file and validates it.
func DecodeObject(buf []byte) (*Object, error) {
	_, rest, err := objFormat.Read(buf)
	if err != nil {
		return nil, err
	}
	body, n, err := frame.ReadRecord(rest, len(rest))
	if err == nil && n != len(rest) {
		err = fmt.Errorf("%d trailing bytes", len(rest)-n)
	}
	if err != nil {
		return nil, fmt.Errorf("object file corrupt: %w", err)
	}
	d := &objDecoder{buf: body}
	o := &Object{Key: d.str(), ModName: d.str(), SrcPath: d.str(), NumSlots: d.u32()}
	for i := d.count("ports", 20); i > 0; i-- {
		o.Ports = append(o.Ports, Port{Name: d.str(), Dir: PortDir(d.u32()), Slot: d.u32(), Mask: d.u64()})
	}
	for i := d.count("regs", 20); i > 0; i-- {
		o.Regs = append(o.Regs, Reg{Name: d.str(), Cur: d.u32(), Next: d.u32(), Mask: d.u64()})
	}
	for i := d.count("mems", 20); i > 0; i-- {
		o.Mems = append(o.Mems, Mem{Name: d.str(), Index: d.u32(), Depth: d.u32(), Mask: d.u64()})
	}
	for i := d.count("consts", 12); i > 0; i-- {
		o.Consts = append(o.Consts, ConstInit{Slot: d.u32(), Value: d.u64()})
	}
	for i := d.count("displays", 8); i > 0; i-- {
		dd := Display{Format: d.str()}
		for j := d.count("display args", 4); j > 0; j-- {
			dd.Args = append(dd.Args, d.u32())
		}
		o.Displays = append(o.Displays, dd)
	}
	for i := d.count("children", 12); i > 0; i-- {
		c := Child{InstName: d.str(), ObjectKey: d.str()}
		for j := d.count("binds", 8); j > 0; j-- {
			c.Binds = append(c.Binds, ChildBind{ParentSlot: d.u32(), ChildPort: d.u32()})
		}
		o.Children = append(o.Children, c)
	}
	for _, code := range []*[]Instr{&o.Comb, &o.Seq} {
		*code = make([]Instr, d.count("instructions", 28))
		for i := range *code {
			in := &(*code)[i]
			opw := d.u32()
			in.Op, in.W = OpCode(opw&0xFF), uint8(opw>>8)
			in.Dst, in.A, in.B, in.C, in.Imm = d.u32(), d.u32(), d.u32(), d.u32(), d.u64()
		}
	}
	for i := d.count("debug entries", 12); i > 0; i-- {
		o.Debug = append(o.Debug, SlotDebug{Name: d.str(), Slot: d.u32(), Bits: int(d.u32())})
	}
	if d.err == nil && d.off != len(body) {
		d.fail("object file has %d trailing bytes", len(body)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("decoded object invalid: %w", err)
	}
	return o, nil
}
