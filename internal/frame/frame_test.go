package frame

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

var testFormat = Header{Magic: "LSFZ", Min: 1, Max: 2}

func TestHeaderNamesTheSupportedRange(t *testing.T) {
	good := testFormat.Append(nil)
	if v, rest, err := testFormat.Read(append(good, 'x')); err != nil || v != 2 || string(rest) != "x" {
		t.Fatalf("Read(own header) = %d, %q, %v", v, rest, err)
	}
	for name, data := range map[string][]byte{
		"short":     good[:HeaderLen-1],
		"magic":     append([]byte("LSXX"), good[4:]...),
		"version-0": Header{Magic: "LSFZ", Max: 0}.Append(nil),
		"version-3": Header{Magic: "LSFZ", Max: 3}.Append(nil),
	} {
		_, _, err := testFormat.Read(data)
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if strings.HasPrefix(name, "version") && !strings.Contains(err.Error(), "reads 1..2") {
			t.Errorf("%s: %v does not name the supported range", name, err)
		}
	}
}

// TestRecordsStopAtDamage: each kind of damage stops the scan at the last
// whole record, and the clean prefix re-reads without error.
func TestRecordsStopAtDamage(t *testing.T) {
	good := AppendRecord(AppendRecord(nil, []byte("first")), []byte("second"))
	first := RecordHeaderLen + len("first")
	flip := append([]byte(nil), good...)
	flip[len(flip)-1] ^= 1
	long := append([]byte(nil), good...)
	long[first+4] = 200
	for name, data := range map[string][]byte{
		"torn-header":  good[:first+3],
		"torn-payload": good[:len(good)-1],
		"crc":          flip,
		"over-max":     long,
	} {
		var got []string
		clean, err := Records(data, 64, func(p []byte) error { got = append(got, string(p)); return nil })
		if err == nil || clean != first || len(got) != 1 || got[0] != "first" {
			t.Errorf("%s: clean %d, records %q, err %v", name, clean, got, err)
		}
		if _, err := Records(data[:clean], 64, func([]byte) error { return nil }); err != nil {
			t.Errorf("%s: clean prefix does not re-read: %v", name, err)
		}
	}
	refuse := errors.New("refused")
	clean, err := Records(good, 64, func(p []byte) error {
		if string(p) == "second" {
			return refuse
		}
		return nil
	})
	if clean != first || !errors.Is(err, refuse) {
		t.Errorf("a refused record: clean %d err %v", clean, err)
	}
}

// TestPayloadIsCapped: appending to a returned payload must not write
// over the bytes that follow it in the input.
func TestPayloadIsCapped(t *testing.T) {
	data := AppendRecord(AppendRecord(nil, []byte("a")), []byte("b"))
	p, _, err := ReadRecord(data, 8)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(p, 'X')
	if _, _, err := ReadRecord(data[RecordHeaderLen+1:], 8); err != nil {
		t.Fatalf("the next record was overwritten: %v", err)
	}
}

// FuzzFrame: reading a header and records never panics and never reports
// a clean prefix past the input, and what it accepts re-encodes to the
// same bytes.
func FuzzFrame(f *testing.F) {
	valid := AppendRecord(AppendRecord(testFormat.Append(nil), []byte("one")), nil)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(testFormat.Append(nil))
	f.Add([]byte{})
	f.Add([]byte("LSFZ"))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := testFormat.Read(data)
		if err != nil {
			return
		}
		if !bytes.Equal(Header{Magic: testFormat.Magic, Max: v}.Append(nil), data[:HeaderLen]) {
			t.Fatalf("accepted header %x does not re-encode", data[:HeaderLen])
		}
		var again []byte
		clean, err := Records(rest, 64, func(p []byte) error {
			again = AppendRecord(again, p)
			return nil
		})
		if clean < 0 || clean > len(rest) || (err == nil) != (clean == len(rest)) {
			t.Fatalf("clean prefix %d of %d bytes, err %v", clean, len(rest), err)
		}
		if !bytes.Equal(again, rest[:clean]) {
			t.Fatal("accepted records do not re-encode to their bytes")
		}
	})
}
