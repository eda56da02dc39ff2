package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"livesim/internal/catalogue"
	"livesim/internal/checkpoint"
	"livesim/internal/wal"
)

// This file is the crash-restart half of durable session recovery. A
// freshly booted session plus its write-ahead journal (internal/wal)
// reconstructs the pre-crash session: ReplayFrom re-applies every
// journaled mutation in sequence, verifying each record against the
// design version table and the resulting pipe cycles, so a divergence —
// a journal from different sources, a missing checkpoint, a
// nondeterministic testbench — is detected instead of silently served.
//
// Replay has two gears. The baseline re-executes every command, which
// reproduces the session bit-identically (history, checkpoint cadence
// and all) because testbenches are deterministic and resumable. When
// the journal's command stream is pure instpipe/run/poke — the common
// long-lived-session shape — the checkpoint fast path instead restores
// each pipe's newest intact watermark checkpoint (TypeMark records),
// reconstructs the run journal virtually from the records it skips, and
// only re-executes the post-watermark tail.

// ErrReplayDiverged marks a recovery replay whose result contradicts
// the journal — wrong design version after a mutation, wrong cycle
// after a run, a watermark checkpoint that does not line up. The
// session must not be served in that state.
var ErrReplayDiverged = errors.New("replay diverged from journal")

// ExecRecord applies one journaled command record to the session. The
// server wires this to the shared command dispatcher, so replay and
// live traffic run the exact same verb implementations.
type ExecRecord func(rec *wal.Record) error

// ReplayReport summarizes one recovery replay.
type ReplayReport struct {
	// Records is the journal length; Executed were re-applied through
	// exec, Skipped were covered by a watermark checkpoint.
	Records  int
	Executed int
	Skipped  int
	// FastPath is set when the checkpoint fast path was eligible.
	FastPath bool
	// Checkpoints counts watermark checkpoint files restored.
	Checkpoints int
	Duration    time.Duration
}

// ReplayFrom reconstructs session state from journal records, taking
// the checkpoint fast path when the command stream allows it. dir is
// the state directory watermark paths are relative to. Boot records are
// the caller's job (the session handed in must already be booted) and
// are skipped here.
func (s *Session) ReplayFrom(dir string, recs []*wal.Record, exec ExecRecord) (*ReplayReport, error) {
	return s.replayFrom(dir, recs, exec, true)
}

// ReplayFull is ReplayFrom with the checkpoint fast path disabled:
// every journaled mutation is re-executed. The server falls back to
// this (on a re-booted session) when the fast path reports divergence,
// e.g. because a watermark checkpoint file was lost.
func (s *Session) ReplayFull(dir string, recs []*wal.Record, exec ExecRecord) (*ReplayReport, error) {
	return s.replayFrom(dir, recs, exec, false)
}

func (s *Session) replayFrom(dir string, recs []*wal.Record, exec ExecRecord, allowFast bool) (*ReplayReport, error) {
	t0 := time.Now()
	rep := &ReplayReport{Records: len(recs)}
	defer func() {
		rep.Duration = time.Since(t0)
		s.metrics.Histogram("replay_ms", nil).Observe(float64(rep.Duration.Milliseconds()))
	}()

	// Fast-path eligibility: with only structural and watermark-covered
	// verbs in the stream (the catalogue's replay classes: instpipe, run,
	// poke) there is a single design version and no external file
	// dependency, so a watermark checkpoint plus a virtually reconstructed
	// journal is provably equivalent to re-execution.
	//
	// A record type this build does not replay refuses the journal before
	// anything runs: the reanchor records of journals that once acked
	// mutations they did not hold are among them, and the records around
	// one do not describe the session on their own.
	fast := allowFast
	for i, r := range recs {
		switch r.Type {
		case wal.TypeBoot, wal.TypeMark:
		case wal.TypeCmd:
			if v, ok := catalogue.Lookup(r.Verb); !ok || v.Replay == catalogue.Reexec {
				fast = false
			}
		default:
			return rep, fmt.Errorf("record %d: record type %q cannot be replayed: %w", i, r.Type, ErrReplayDiverged)
		}
	}
	rep.FastPath = fast

	// Pick each pipe's newest *intact* watermark: a mark whose checkpoint
	// file (or its .bak) still loads. Damaged or missing files just push
	// recovery to an earlier mark — or to full re-execution of that
	// pipe's records.
	markAt := make(map[string]int)                    // pipe -> record index of chosen mark
	markCp := make(map[string]*checkpoint.Checkpoint) // pipe -> its decoded checkpoint
	if fast {
		checked := make(map[string]bool)
		for i := len(recs) - 1; i >= 0; i-- {
			r := recs[i]
			if r.Type != wal.TypeMark || checked[r.Pipe] {
				continue
			}
			if cp, _, err := checkpoint.LoadFile(filepath.Join(dir, r.Path)); err == nil {
				markAt[r.Pipe], markCp[r.Pipe] = i, cp
				checked[r.Pipe] = true
			}
		}
	}

	// Each watermarked pipe's run journal, rebuilt from the records its
	// watermark covers.
	virtHist := make(map[string]*virtJournal)

	for i, r := range recs {
		switch r.Type {
		case wal.TypeBoot:
			continue
		case wal.TypeMark:
			mi, chosen := markAt[r.Pipe]
			if !fast || !chosen || mi != i {
				continue
			}
			// Apply the watermark: install the virtually reconstructed
			// journal, then restore the checkpoint (which truncates it to
			// the file's history position).
			if err := s.applyCheckpoint(i, r, virtHist[r.Pipe], markCp[r.Pipe]); err != nil {
				return rep, err
			}
			rep.Checkpoints++
			continue
		}

		// TypeCmd. Skip records a chosen watermark covers. One that ran its pipe
		// extends the run journal it would have produced; any other's
		// state effect is inside the watermark checkpoint.
		if mi, ok := markAt[cmdPipe(r)]; fast && ok && i < mi {
			if runsPipe(r) {
				v := virtHist[r.Args[1]]
				if v == nil {
					v = &virtJournal{}
					virtHist[r.Args[1]] = v
				}
				if start := journalEnd(v.history); r.Cycle > start {
					v.history = extendJournal(v.history, r.Args[0], start, int(r.Cycle-start))
					v.runs++
				}
			}
			rep.Skipped++
			continue
		}

		if err := exec(r); err != nil {
			return rep, fmt.Errorf("record %d (%s): %w", i, r.Verb, err)
		}
		rep.Executed++

		// Sequencing against the design version table: the journal records
		// the version each mutation committed under.
		if r.Version != "" {
			if v := s.Version(); v != r.Version {
				return rep, fmt.Errorf("record %d (%s): version %s after replay, journal says %s: %w",
					i, r.Verb, v, r.Version, ErrReplayDiverged)
			}
		}
		// Runs also record the cycle they ended on.
		if r.Cycle != 0 && runsPipe(r) {
			if p, ok := s.Pipe(r.Args[1]); ok {
				if c := p.Sim.Cycle(); c != r.Cycle {
					return rep, fmt.Errorf("record %d (%s %s): cycle %d after replay, journal says %d: %w",
						i, r.Verb, r.Args[1], c, r.Cycle, ErrReplayDiverged)
				}
			}
		}
	}
	return rep, nil
}

// virtJournal is a pipe's run journal and run count as the records a
// watermark skips would have built them.
type virtJournal struct {
	history []RunOp
	runs    int
}

// journalEnd is the cycle after the journal's last op.
func journalEnd(h []RunOp) uint64 {
	if len(h) == 0 {
		return 0
	}
	return h[len(h)-1].end()
}

// applyCheckpoint applies a watermark record r (index i): it installs
// virt (nil: no runs) as the pipe's run journal, restores cp into the
// pipe, and checks the result against the record's cycle and run count.
func (s *Session) applyCheckpoint(i int, r *wal.Record, virt *virtJournal, cp *checkpoint.Checkpoint) error {
	s.mu.Lock()
	p, ok := s.pipes[r.Pipe]
	if ok {
		p.History, p.runs = nil, 0
		if virt != nil {
			p.History, p.runs = virt.history, virt.runs
		}
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("record %d: %s for unknown pipe %q: %w", i, r.Type, r.Pipe, ErrReplayDiverged)
	}
	if err := s.loadCheckpoint(p, cp); err != nil {
		return fmt.Errorf("record %d: %s %s: %w", i, r.Type, r.Path, err)
	}
	if c := p.Sim.Cycle(); c != r.Cycle {
		return fmt.Errorf("record %d: %s restored cycle %d, journal says %d: %w",
			i, r.Type, c, r.Cycle, ErrReplayDiverged)
	}
	if got := s.runCount(p); got != r.HistoryLen {
		return fmt.Errorf("record %d: %s restored %d journaled runs, journal says %d: %w",
			i, r.Type, got, r.HistoryLen, ErrReplayDiverged)
	}
	return nil
}

// cmdPipe names the single pipe a state-mutating command targets, or
// "" for structural/design-wide verbs (instpipe, copypipe, apply) that
// must always re-execute.
func cmdPipe(r *wal.Record) string {
	if v, ok := catalogue.Lookup(r.Verb); ok {
		return v.PipeOf(r.Args)
	}
	return ""
}

// runsPipe reports whether a command record ran its pipe under a
// testbench (run, trace): its Args are <tb> <pipe> ..., and its Cycle
// is where the pipe ended.
func runsPipe(r *wal.Record) bool {
	v, ok := catalogue.Lookup(r.Verb)
	return ok && v.Pipe == catalogue.PipeAfterTB && len(r.Args) >= 2
}

// runCount reads a pipe's journaled-run count under the session lock.
func (s *Session) runCount(p *Pipe) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return p.runs
}
