package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"livesim/internal/frame"
	"livesim/internal/govern"
	"livesim/internal/obs"
	"livesim/internal/replica"
	"livesim/internal/transfer"
	"livesim/internal/wal"
	"livesim/internal/wire"
)

// Session replication. A primary backend streams each durable session's
// committed WAL records to a standby backend (internal/replica): the
// standby is seeded once with a transfer blob of the session's journal
// and checkpoints, landed as a follower, and from then on the
// ship-on-commit hook in journalMutation sends the journal tail after
// every mutation — a client's ack implies the standby holds the record.
// The gateway picks the standby (rendezvous next-best) and promotes it
// under a monotonically increasing epoch, when the primary is down past a
// grace window (failover) or when it moves the session (migration). The
// epoch is the fencing token: it is journaled (wal.TypeEpoch), stamped by
// the gateway on forwarded mutations, and checked on every mutation and
// every shipped batch, so a resurrected stale primary is rejected with
// CodeFenced instead of split-braining the session.
//
// Wire surface added here:
//
//	replicate <addr>   seed addr as this session's standby, start shipping;
//	                   on a session already shipping to addr, catch the
//	                   stream up to the journal head instead
//	replicate stop     stop shipping (the standby keeps its copy)
//	import             land a seed blob as a follower (standby side)
//	replapply          apply one shipped batch (follower side)
//	promote            follower -> primary under a new epoch
//
// All but import are serialized on the session worker.

// followerMeta is the sidecar persisted next to a follower's journal
// (<name>.follower): follower-ness cannot ride in the journal itself
// because the follower's journal must mirror the primary's record
// stream seq-for-seq.
type followerMeta struct {
	Epoch uint64 `json:"epoch"`
}

func (s *Server) followerPath(name string) string {
	return filepath.Join(s.cfg.StateDir, name+".follower")
}

// writeFollowerMeta persists follower-ness durably (atomic write, so a
// crash never leaves a half-written sidecar).
func (s *Server) writeFollowerMeta(name string, epoch uint64) error {
	data, _ := json.Marshal(followerMeta{Epoch: epoch})
	return frame.WriteFileAtomic(s.followerPath(name), data, nil)
}

// readFollowerMeta loads the sidecar; ok is false when the session was
// not a follower.
func (s *Server) readFollowerMeta(name string) (followerMeta, bool) {
	data, err := os.ReadFile(s.followerPath(name))
	if err != nil {
		return followerMeta{}, false
	}
	var m followerMeta
	if json.Unmarshal(data, &m) != nil {
		return followerMeta{}, false
	}
	return m, true
}

// fencedResp builds the typed fenced rejection, carrying the session's
// journal head and epoch so the (stale) caller can at least observe how
// far ahead the fleet moved.
func (s *Server) fencedResp(req *Request, h *hosted) *Response {
	r := wire.Refuse(req, wire.CodeFenced,
		fmt.Errorf("session %q: %w (epoch here %d, request carried %d)",
			req.Session, ErrFenced, h.epoch.Load(), req.Epoch))
	ack := replica.Ack{Epoch: h.epoch.Load()}
	if h.wal != nil {
		ack.AckedSeq = h.wal.Seq()
	}
	r.Data, _ = json.Marshal(ack)
	return r
}

// replGate is the mutation-path fencing check, run before any mutating
// verb executes. Fenced sessions reject everything; followers reject
// direct mutations (their only writer is the replapply stream); a
// request stamped with a different epoch than the session holds is a
// split-brain signal — a higher stamp means the fleet promoted someone
// else while this backend wasn't looking, so it fences itself.
func (s *Server) replGate(h *hosted, req *Request) *Response {
	if h.fenced.Load() {
		return s.fencedResp(req, h)
	}
	if h.follower.Load() {
		return wire.Refuse(req, wire.CodeFollower,
			fmt.Errorf("session %q: %w", req.Session, ErrFollower))
	}
	if req.Epoch != 0 {
		cur := h.epoch.Load()
		if req.Epoch > cur {
			s.fenceSession(h, fmt.Sprintf(
				"request carried epoch %d, session holds %d: a newer primary exists", req.Epoch, cur))
			return s.fencedResp(req, h)
		}
		if req.Epoch < cur {
			// A stale route stamp (the gateway's view predates a promote
			// here): reject without self-fencing — this backend IS current.
			return s.fencedResp(req, h)
		}
	}
	return nil
}

// stopShipper tears down a session's replication stream, if any. Every
// way out runs it (through stop), so a dangling stream never outlives
// its primary.
func stopShipper(h *hosted) {
	if sp := h.shipper.Swap(nil); sp != nil {
		sp.Stop()
	}
}

// fenceSession permanently fences a stale primary: its state is a dead
// branch of the session's history. Idempotent; safe from any goroutine.
func (s *Server) fenceSession(h *hosted, why string) {
	if h.fenced.Swap(true) {
		return
	}
	if sp := h.shipper.Swap(nil); sp != nil {
		sp.Stop()
	}
	// A self-fence is an abnormal exit for this branch of the session's
	// history — leave the black box explaining what led up to it.
	s.tel.Blackbox("session_fenced", h.name, "", why)
}

// replicateTask (verb "replicate", on the session worker) arms replication:
// export the session's state as a transfer blob, seed the standby with
// it as a follower, and install the shipper the ship-on-commit hook
// drives from then on. On a session already shipping to the named
// standby it seeds nothing: it ships the tail and acks only when the
// standby holds the journal head, which is what a migration commits on
// (marks written outside a mutation wait for the next one's batch, so a
// lag of zero is not enough). `replicate stop` tears the stream down.
func (s *Server) replicateTask(t *task) *Response {
	h := t.h
	req := t.Req
	if len(req.Args) == 1 && req.Args[0] == "stop" {
		if sp := h.shipper.Swap(nil); sp != nil {
			sp.Stop()
			s.tel.Event("replication_stopped", h.name, "", "stream to "+sp.Target()+" stopped by operator")
		}
		return &Response{ID: req.ID, OK: true,
			Output: fmt.Sprintf("replication for %s stopped\n", h.name)}
	}
	if len(req.Args) != 1 || req.Args[0] == "" {
		return wire.Refuse(req, wire.CodeBadRequest, fmt.Errorf("usage: replicate <addr>|stop"))
	}
	if h.wal == nil {
		return wire.Refuse(req, wire.CodeBadRequest,
			fmt.Errorf("session %q has no journal (state dir disabled); cannot replicate", h.name))
	}
	if h.fenced.Load() {
		return s.fencedResp(req, h)
	}
	if h.follower.Load() {
		return wire.Refuse(req, wire.CodeFollower,
			fmt.Errorf("session %q: %w; promote it before replicating onward", h.name, ErrFollower))
	}
	target := req.Args[0]

	if sp := h.shipper.Load(); sp != nil && sp.Target() == target {
		if err := s.ship(h, sp, t.Req.TraceID, t.Span.SID()); err != nil {
			if errors.Is(err, replica.ErrFenced) {
				return s.fencedResp(req, h)
			}
			return wire.Refuse(req, wire.CodeError, fmt.Errorf("replicate catch-up to %s: %w", target, err))
		}
		acked, head := sp.AckedSeq(), h.wal.Seq()
		if acked != head {
			return wire.Refuse(req, wire.CodeError,
				fmt.Errorf("replicate catch-up to %s: standby acked seq %d, journal head is %d", target, acked, head))
		}
		data, _ := json.Marshal(replica.Ack{AckedSeq: acked, Epoch: h.epoch.Load()})
		return &Response{ID: req.ID, OK: true, Data: data,
			Output: fmt.Sprintf("replication of %s to %s caught up at seq %d\n", h.name, target, acked)}
	}

	img, meta, err := s.exportBlob(h)
	if err != nil {
		return wire.Refuse(req, wire.CodeError, fmt.Errorf("replicate seed export: %w", err))
	}
	if old := h.shipper.Swap(nil); old != nil {
		old.Stop()
	}
	sp := replica.New(replica.Config{
		Session: h.name,
		Target:  target,
		WALPath: h.wal.Path(),
		Epoch:   h.epoch.Load(),
		Faults:  s.cfg.Faults,
		Metrics: h.reg,
	})
	if err := sp.Seed(img, meta.Seq, meta.WALBytes); err != nil {
		if errors.Is(err, replica.ErrFenced) {
			s.fenceSession(h, "standby "+target+" holds a newer epoch")
			return s.fencedResp(req, h)
		}
		return wire.Refuse(req, wire.CodeError, fmt.Errorf("replicate seed to %s: %w", target, err))
	}
	h.shipper.Store(sp)
	h.reg.Gauge("repl_lag_records").Set(0)
	s.tel.Event("replication_started", h.name, "",
		fmt.Sprintf("seeded standby %s at seq %d (%d bytes)", target, meta.Seq, len(img)))
	data, _ := json.Marshal(replica.Ack{AckedSeq: meta.Seq, Epoch: h.epoch.Load()})
	return &Response{ID: req.ID, OK: true,
		Output: fmt.Sprintf("replicating session %s to %s (seeded at seq %d)\n",
			h.name, target, meta.Seq),
		Data: data}
}

// importSession (verb "import") lands a seed blob as a follower: write
// the follower sidecar, journal and checkpoints into the state dir, then
// run the recovery routine a restart would — synchronously, because the
// seeding primary waits on the answer. Runs inline on the connection
// goroutine like create; a recovering placeholder keeps concurrent
// requests out until replay completes. The landed session takes
// mutations only from the primary's replapply stream, under the epoch
// the request carries. A seed may land over an existing follower of the
// same session — the re-seed after a batch failed mid-apply, or a stale
// copy a moved stream left behind — but never over a primary.
func (s *Server) importSession(req *Request) *Response {
	if s.cfg.StateDir == "" {
		return wire.Refuse(req, wire.CodeBadRequest, fmt.Errorf("import requires a state dir"))
	}
	if len(req.Args) != 0 {
		return wire.Refuse(req, wire.CodeBadRequest, fmt.Errorf("usage: import"))
	}
	if len(req.Blob) == 0 {
		return wire.Refuse(req, wire.CodeBadRequest, fmt.Errorf("import needs a transfer blob"))
	}
	blob, err := transfer.Decode(req.Blob)
	if err != nil {
		return wire.Refuse(req, wire.CodeBadRequest, err)
	}
	name := blob.Meta.Session
	if req.Session != "" && req.Session != name {
		return wire.Refuse(req, wire.CodeBadRequest,
			fmt.Errorf("request names session %q but blob carries %q", req.Session, name))
	}
	if !nameRE.MatchString(name) {
		return wire.Refuse(req, wire.CodeBadRequest,
			fmt.Errorf("session name %q must match %s", name, nameRE.String()))
	}
	// Entry whitelist: exactly this session's journal and checkpoint
	// basenames — transfer.Decode already rejected path separators, this
	// rejects a blob smuggling some other session's files.
	sawWAL := false
	for _, e := range blob.Entries {
		switch {
		case e.Name == name+".wal":
			sawWAL = true
		case filepath.Ext(e.Name) == ".lscp" &&
			len(e.Name) > len(name)+6 && e.Name[:len(name)+1] == name+".":
		default:
			return wire.Refuse(req, wire.CodeBadRequest,
				fmt.Errorf("blob entry %q does not belong to session %q", e.Name, name))
		}
	}
	if !sawWAL {
		return wire.Refuse(req, wire.CodeBadRequest, fmt.Errorf("blob carries no journal for %q", name))
	}
	if s.diskLevelNow() >= govern.LevelEmergency {
		// An import is all writes; at the emergency rung the target could
		// not even journal the session's next mutation once landed.
		return wire.Refuse(req, wire.CodeDiskFull, ErrDiskFull)
	}

	reseed := func(h *hosted) bool { return h.follower.Load() && req.Epoch >= h.epoch.Load() }
	if old := s.unlink(name, reseed); old != nil {
		s.stop(old, 0)
		s.persist(old, leaveNothing)
		s.tel.Event("follower_reseed", name, "", "stale follower replaced by a fresh seed")
	}

	h, code, err := s.reserve(name, viaImport)
	if err != nil {
		return wire.Refuse(req, code, err)
	}
	defer s.recoveryWG.Done()
	t0 := time.Now()
	rep, err := s.recoverSession(h, func() error {
		// The sidecar lands first, holding the seed's epoch: a restarted
		// standby that forgot it was a follower would accept direct
		// mutations and fork the stream, so no landed journal may lack it.
		s.removeSessionState(name)
		if err := s.writeFollowerMeta(name, req.Epoch); err != nil {
			return fmt.Errorf("persist follower meta: %w", err)
		}
		for _, e := range blob.Entries {
			if err := frame.WriteFileAtomic(filepath.Join(s.cfg.StateDir, e.Name), e.Payload, nil); err != nil {
				return fmt.Errorf("write %s: %w", e.Name, err)
			}
		}
		return nil
	})
	if err != nil {
		if !errors.Is(err, ErrDraining) {
			s.removeSessionState(name)
		}
		s.tel.Event("import_failed", name, "", err.Error())
		return wire.Refuse(req, wire.CodeError, fmt.Errorf("import %q: %w", name, err))
	}
	dur := time.Since(t0)
	s.reg.Histogram("server_import_seconds", nil).Observe(dur.Seconds())
	s.tel.Event("session_imported", name, "",
		fmt.Sprintf("seeded as follower (epoch %d) in %v (%d records: %d replayed, %d skipped, fast=%v)",
			h.epoch.Load(), dur.Round(time.Millisecond), rep.Records, rep.Executed, rep.Skipped, rep.FastPath))
	return &Response{ID: req.ID, OK: true,
		Output: fmt.Sprintf("imported session %s as follower in %v\n", name, dur.Round(time.Millisecond))}
}

// replAck builds the Ack payload for replapply responses.
func replAck(h *hosted) []byte {
	ack := replica.Ack{Epoch: h.epoch.Load()}
	if h.wal != nil {
		ack.AckedSeq = h.wal.Seq()
	}
	data, _ := json.Marshal(ack)
	return data
}

// replApplyTask (verb "replapply", on the session worker) is the follower half of
// the stream: decode one shipped batch, verify it continues exactly at
// this journal's head, apply each record to the live session AND append
// it to the local journal (preserving the primary's sequence numbers),
// fsync, ack the new head. The follower is a hot standby — promote is a
// flag flip plus one epoch record, not a replay.
func (s *Server) replApplyTask(t *task) *Response {
	h := t.h
	req := t.Req
	cur := h.epoch.Load()
	if req.Epoch < cur {
		// A stale primary's stream: it was superseded by a promote here
		// (or by an epoch this follower adopted). Rejecting with the typed
		// code is what makes the stale primary fence itself.
		return s.fencedResp(req, h)
	}
	if !h.follower.Load() {
		// Promoted (or never was a follower): any stream targeting it is
		// stale by definition — two live primaries at one epoch would be a
		// protocol violation.
		return s.fencedResp(req, h)
	}
	if h.wal == nil {
		return wire.Refuse(req, wire.CodeBadRequest,
			fmt.Errorf("session %q has no journal; cannot apply a replication batch", h.name))
	}

	epoch, afterSeq, recs, err := replica.DecodeBatch(req.Blob)
	if err != nil {
		return wire.Refuse(req, wire.CodeBadRequest, fmt.Errorf("replapply: %w", err))
	}
	if epoch < cur {
		return s.fencedResp(req, h)
	}
	if epoch > cur {
		// The primary moved to a newer epoch (it was itself promoted
		// before we were seeded, and its journal carries the token).
		// Adopt it durably so a later stream from the older epoch is
		// rejected even across a follower restart.
		if err := s.writeFollowerMeta(h.name, epoch); err != nil {
			return wire.Refuse(req, wire.CodeError, fmt.Errorf("replapply: persist epoch: %w", err))
		}
		h.epoch.Store(epoch)
	}
	head := h.wal.Seq()
	if afterSeq != head {
		// The stream and this journal disagree about the head (a shipper
		// restart, or our own crash recovery truncated an unsynced tail).
		// Tell the shipper where to resume.
		r := wire.Refuse(req, wire.CodeReplResync,
			fmt.Errorf("batch continues from seq %d but journal head is %d", afterSeq, head))
		r.Data = replAck(h)
		return r
	}
	// Any failure mid-batch leaves live state and journal out of step —
	// something the resync protocol (which only compares journal heads)
	// cannot repair. The honest recovery is a fresh seed, which rebuilds
	// this follower from the primary's current image.
	poison := func(stage string, cause error) *Response {
		r := wire.Refuse(req, wire.CodeReplReseed,
			fmt.Errorf("replapply %s: %w; follower needs a fresh seed", stage, cause))
		r.Data = replAck(h)
		return r
	}
	applied := 0
	for _, r := range recs {
		switch r.Type {
		case wal.TypeCmd:
			if err := execRecord(h.sess.Load(), h.reg, r); err != nil {
				return poison(fmt.Sprintf("record seq %d (%s)", r.Seq, r.Verb), err)
			}
		case wal.TypeMark:
			// Save our own checkpoint under the mark's name (state here
			// mirrors the primary's at this point in the stream), so this
			// follower's own crash recovery — and a promote-then-reseed —
			// keep the watermark fast path. Best-effort: a failed save just
			// pushes a future replay to an earlier mark or full replay.
			if err := h.sess.Load().SaveCheckpoint(r.Pipe, filepath.Join(s.cfg.StateDir, r.Path)); err != nil {
				s.reg.Counter("server_repl_mark_save_failures").Inc()
			}
		case wal.TypeEpoch:
			if r.Epoch > h.epoch.Load() {
				if err := s.writeFollowerMeta(h.name, r.Epoch); err != nil {
					return wire.Refuse(req, wire.CodeError, fmt.Errorf("replapply: persist epoch: %w", err))
				}
				h.epoch.Store(r.Epoch)
			}
		default:
			return wire.Refuse(req, wire.CodeBadRequest,
				fmt.Errorf("replapply: record seq %d has type %q (not shippable)", r.Seq, r.Type))
		}
		// Append mirrors the primary's journal seq-for-seq: Append assigns
		// head+1, which the batch's contiguity check guarantees equals
		// r.Seq. The record must land even when a mark's checkpoint save
		// failed — seq contiguity with the primary is the stream's spine.
		seq := r.Seq
		if aerr := h.wal.Append(r); aerr != nil {
			return poison(fmt.Sprintf("journal append seq %d", seq), aerr)
		}
		if r.Type == wal.TypeMark {
			s.noteMark(h)
		}
		applied++
	}
	if err := h.wal.Sync(); err != nil {
		return poison("journal sync", err)
	}
	if applied > 0 {
		h.dirty.Store(true)
		s.updateMemUsage(h)
	}
	h.reg.Counter("repl_applied_records").Add(uint64(applied))
	h.reg.Gauge("repl_follower_seq").Set(h.wal.Seq())
	return &Response{ID: req.ID, OK: true,
		Output: fmt.Sprintf("applied %d record(s); head seq %d\n", applied, h.wal.Seq()),
		Data:   replAck(h)}
}

// promoteTask (verb "promote", on the session worker) turns a follower into the
// session's primary under a new, strictly higher epoch. The epoch is
// journaled (and fsynced) before the flags flip, so the promotion — and
// the fencing of every older stream — survives a crash. Idempotent at
// the same epoch; a promote carrying an older epoch is itself fenced
// (the promote-stale fault exercises exactly that).
func (s *Server) promoteTask(t *task) *Response {
	h := t.h
	req := t.Req
	cur := h.epoch.Load()
	newEpoch := req.Epoch
	if newEpoch == 0 {
		newEpoch = cur + 1
	}
	if newEpoch < cur || (newEpoch == cur && h.follower.Load()) {
		return s.fencedResp(req, h)
	}
	if newEpoch == cur {
		// Already primary at this epoch: a retried promote. Ack it.
		r := &Response{ID: req.ID, OK: true,
			Output: fmt.Sprintf("session %s already primary at epoch %d\n", h.name, cur)}
		r.Data = replAck(h)
		return r
	}
	if h.wal != nil {
		if err := h.wal.Append(&wal.Record{Type: wal.TypeEpoch, Epoch: newEpoch}); err != nil {
			return wire.Refuse(req, wire.CodeError, fmt.Errorf("promote: journal epoch record: %w", err))
		}
		if err := h.wal.Sync(); err != nil {
			return wire.Refuse(req, wire.CodeError, fmt.Errorf("promote: journal sync: %w", err))
		}
	}
	h.epoch.Store(newEpoch)
	wasFollower := h.follower.Swap(false)
	h.fenced.Store(false)
	if sp := h.shipper.Swap(nil); sp != nil {
		sp.Stop()
	}
	if s.cfg.StateDir != "" {
		os.Remove(s.followerPath(h.name))
	}
	s.tel.Event("session_promoted", h.name, "",
		fmt.Sprintf("promoted to primary under epoch %d (was follower: %v)", newEpoch, wasFollower))
	r := &Response{ID: req.ID, OK: true,
		Output: fmt.Sprintf("session %s promoted to primary (epoch %d)\n", h.name, newEpoch)}
	r.Data = replAck(h)
	return r
}

// shipTail is the ship-on-commit hook: called by journalMutation after
// each committed append, it sends the journal tail to the standby and
// waits for the durable ack — which is what makes "the client saw OK"
// imply "the standby has it". Stream failures degrade (lag grows, the
// next mutation retries); a fenced answer is terminal; a reseed request
// re-exports and re-seeds in place, still on the worker goroutine.
func (s *Server) shipTail(h *hosted, t *task) {
	if sp := h.shipper.Load(); sp != nil {
		s.ship(h, sp, t.Req.TraceID, t.execSID)
	}
}

// ship sends the journal tail to sp's standby and waits for the durable
// ack, re-seeding in place when the follower asks for it and fencing the
// session when the standby holds a newer epoch. The ship is part of the
// caller's request latency, so it gets its own span under parentSID, and
// the shipper carries the trace context so the standby's replapply
// request joins the same tree. Runs on the worker goroutine.
func (s *Server) ship(h *hosted, sp *replica.Shipper, trace, parentSID string) error {
	shipSpan := s.tel.Tracer.StartRemote(trace, parentSID, "replicate_ship",
		obs.Str("session", h.name), obs.Str("target", sp.Target()))
	defer shipSpan.End()
	err := sp.ShipTraced(trace, shipSpan.SID())
	if errors.Is(err, replica.ErrReseed) {
		err = s.reseedReplica(h, sp)
	}
	switch {
	case err == nil:
	case errors.Is(err, replica.ErrFenced):
		s.fenceSession(h, "standby "+sp.Target()+" rejected the stream: promoted under a newer epoch")
		return err
	default:
		h.reg.Counter("repl_ship_errors").Inc()
	}
	if h.wal != nil {
		head := h.wal.Seq()
		acked := sp.AckedSeq()
		lag := uint64(0)
		if head > acked {
			lag = head - acked
		}
		h.reg.Gauge("repl_lag_records").Set(lag)
	}
	return err
}

// reseedReplica re-establishes the replication baseline after the
// follower asked for a fresh seed (a batch failed mid-apply there).
func (s *Server) reseedReplica(h *hosted, sp *replica.Shipper) error {
	img, meta, err := s.exportBlob(h)
	if err != nil {
		s.tel.Event("replication_reseed_failed", h.name, "", err.Error())
		return err
	}
	if err := sp.Seed(img, meta.Seq, meta.WALBytes); err != nil {
		if !errors.Is(err, replica.ErrFenced) {
			s.tel.Event("replication_reseed_failed", h.name, "", err.Error())
		}
		return err
	}
	s.tel.Event("replication_reseeded", h.name, "",
		fmt.Sprintf("standby %s re-seeded at seq %d", sp.Target(), meta.Seq))
	return nil
}

// maxWireBlob caps a seed blob so its base64 form plus JSON framing stays
// under the 16 MB wire line limit both sides enforce.
const maxWireBlob = 11 << 20

// exportBlob freezes the session's durable state into a transfer blob:
// watermark strictly, then frame the journal and its checkpoints. The
// seed and the reseed both ship it.
func (s *Server) exportBlob(h *hosted) ([]byte, transfer.Meta, error) {
	var meta transfer.Meta
	if err := s.watermark(h); err != nil {
		return nil, meta, fmt.Errorf("watermark: %w", err)
	}
	walBytes, err := os.ReadFile(h.wal.Path())
	if err != nil {
		return nil, meta, fmt.Errorf("journal read: %w", err)
	}
	entries := []transfer.Entry{{Name: h.name + ".wal", Payload: walBytes}}
	pipes := h.sess.Load().PipeNames()
	for _, pipe := range pipes {
		base := fmt.Sprintf("%s.%s.lscp", h.name, pipe)
		data, err := os.ReadFile(filepath.Join(s.cfg.StateDir, base))
		if err != nil {
			return nil, meta, fmt.Errorf("checkpoint read: %w", err)
		}
		entries = append(entries, transfer.Entry{Name: base, Payload: data})
	}
	meta = transfer.Meta{
		Session: h.name, Seq: h.wal.Seq(),
		WALBytes: int64(len(walBytes)), Pipes: len(pipes),
	}
	img, err := transfer.Encode(meta, entries)
	if err != nil {
		return nil, meta, fmt.Errorf("encode: %w", err)
	}
	if len(img) > maxWireBlob {
		return nil, meta, fmt.Errorf(
			"blob is %d bytes, over the %d wire cap; checkpoint and truncate history first",
			len(img), maxWireBlob)
	}
	return img, meta, nil
}
