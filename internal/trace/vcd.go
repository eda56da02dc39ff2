// Package trace records simulation waveforms in the Value Change Dump
// (VCD) format of IEEE 1364, viewable in GTKWave and every commercial
// waveform browser. LiveSim's debugging story (Section III-A) revolves
// around jumping to checkpoints near a failure; dumping a window of
// signal activity around that point is the natural companion.
//
// The tracer attaches to a running sim.Sim, watches a chosen set of
// hierarchical signals (or everything), and emits changes per cycle:
//
//	tr, _ := trace.New(w, s, trace.All())
//	for i := 0; i < n; i++ {
//	    s.Tick(1)
//	    tr.Sample()
//	}
//	tr.Close()
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"livesim/internal/sim"
)

// probe is one watched signal. It reads through the simulation by path
// and name, so a hot reload that moves the signal to another slot is
// followed, and one that removes it is dumped as x.
type probe struct {
	sig  sim.Signal
	bits int
	id   string // VCD identifier code
	last uint64
	init bool // last was dumped
	gone bool // x was dumped
}

// Tracer streams VCD to a writer.
type Tracer struct {
	w      *bufio.Writer
	s      *sim.Sim
	probes []*probe
	closed bool
}

// Filter selects which signals to trace. It receives the instance path
// and signal name and reports whether to include the signal.
type Filter func(path, signal string) bool

// All traces every named signal in the hierarchy.
func All() Filter { return func(string, string) bool { return true } }

// Under traces every signal beneath the given instance path prefix.
func Under(prefix string) Filter {
	return func(path, _ string) bool {
		return path == prefix || strings.HasPrefix(path, prefix+".")
	}
}

// New builds a tracer over the simulation's current hierarchy and writes
// the VCD header. Signals are matched by filter; the identifier space
// supports any design size.
func New(w io.Writer, s *sim.Sim, filter Filter) (*Tracer, error) {
	t := &Tracer{w: bufio.NewWriter(w), s: s}
	for _, n := range s.Nodes() {
		for _, d := range n.Obj.SortedDebug() {
			if !filter(n.Path, d.Name) {
				continue
			}
			t.probes = append(t.probes, &probe{sig: sim.Signal{Path: n.Path, Name: d.Name}, bits: d.Bits})
		}
	}
	if len(t.probes) == 0 {
		return nil, fmt.Errorf("trace: no signals matched")
	}
	for i, p := range t.probes {
		p.id = idCode(i)
	}
	if err := t.header(); err != nil {
		return nil, err
	}
	return t, nil
}

// idCode generates compact VCD identifier codes (printable ASCII 33-126).
func idCode(i int) string {
	const lo, hi = 33, 127
	var sb strings.Builder
	for {
		sb.WriteByte(byte(lo + i%(hi-lo)))
		i /= hi - lo
		if i == 0 {
			return sb.String()
		}
		i--
	}
}

func (t *Tracer) header() error {
	fmt.Fprintf(t.w, "$date %s $end\n", time.Unix(0, 0).UTC().Format("2006-01-02"))
	fmt.Fprintln(t.w, "$version livesim $end")
	fmt.Fprintln(t.w, "$timescale 1ns $end")

	// Group probes into the module hierarchy.
	byPath := map[string][]*probe{}
	var paths []string
	for _, p := range t.probes {
		if _, ok := byPath[p.sig.Path]; !ok {
			paths = append(paths, p.sig.Path)
		}
		byPath[p.sig.Path] = append(byPath[p.sig.Path], p)
	}
	sort.Strings(paths)

	open := []string{}
	common := func(a, b []string) int {
		n := 0
		for n < len(a) && n < len(b) && a[n] == b[n] {
			n++
		}
		return n
	}
	for _, path := range paths {
		parts := strings.Split(path, ".")
		keep := common(open, parts)
		for i := len(open); i > keep; i-- {
			fmt.Fprintln(t.w, "$upscope $end")
		}
		for _, part := range parts[keep:] {
			fmt.Fprintf(t.w, "$scope module %s $end\n", part)
		}
		open = parts
		for _, p := range byPath[path] {
			fmt.Fprintf(t.w, "$var wire %d %s %s $end\n", p.bits, p.id, p.sig.Name)
		}
	}
	for range open {
		fmt.Fprintln(t.w, "$upscope $end")
	}
	fmt.Fprintln(t.w, "$enddefinitions $end")
	fmt.Fprintln(t.w, "$dumpvars")
	t.dump(false)
	fmt.Fprintln(t.w, "$end")
	return t.w.Flush()
}

// dump writes every probe whose value changed since it was last dumped,
// after the current cycle's timestamp if stamp is set and one changed.
func (t *Tracer) dump(stamp bool) {
	t.s.Sync()
	for _, p := range t.probes {
		v, ok := t.s.Read(&p.sig)
		if ok && p.init && v == p.last || !ok && p.gone {
			continue
		}
		if stamp {
			fmt.Fprintf(t.w, "#%d\n", t.s.Cycle())
			stamp = false
		}
		t.emit(p, v, ok)
		p.last, p.init, p.gone = v, ok, !ok
	}
}

// Sample records changed values at the simulation's current cycle. Call
// it after each Tick (the simulation is left settled).
func (t *Tracer) Sample() error {
	if t.closed {
		return fmt.Errorf("trace: closed")
	}
	t.dump(true)
	return nil
}

// emit writes one value change; a signal the design no longer has is x.
func (t *Tracer) emit(p *probe, v uint64, ok bool) {
	switch {
	case !ok && p.bits == 1:
		fmt.Fprintf(t.w, "x%s\n", p.id)
	case !ok:
		fmt.Fprintf(t.w, "bx %s\n", p.id)
	case p.bits == 1:
		fmt.Fprintf(t.w, "%d%s\n", v&1, p.id)
	default:
		fmt.Fprintf(t.w, "b%b %s\n", v, p.id)
	}
}

// Close flushes the stream. The tracer cannot be used afterwards.
func (t *Tracer) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	return t.w.Flush()
}

// NumProbes reports how many signals are being traced.
func (t *Tracer) NumProbes() int { return len(t.probes) }
