// Package replica ships a durable session's committed WAL records from
// its primary backend to a standby, so a permanently dead backend (disk
// gone, host gone) loses no acked mutation: the gateway promotes the
// standby and clients continue where they were.
//
// The protocol has two parts. A one-time seed hands the standby the
// session's full state as an internal/transfer blob, which the standby's
// `import` lands as a follower. After that the
// primary ships only the WAL tail: batches of journal records, byte for
// byte as the journal holds them, behind an internal/frame header and a
// record carrying the primary's fencing epoch and the sequence number the
// batch continues from. The standby appends each record to its own
// journal, fsyncs, and acks the new head; the
// primary's acked watermark then trails its journal head by exactly the
// unshipped tail — the replication lag surfaced in `sessions` and
// /metrics.
//
// Shipping is synchronous with the mutation path by default: a client's
// ack implies the standby has the record. A standby that cannot be
// reached degrades the stream (the session keeps serving, lag grows)
// and the next ship attempt reconnects and catches up from the acked
// watermark. A standby that answers wire.CodeFenced — it was promoted under a
// newer epoch — is authoritative: the shipper reports ErrFenced and the
// server fences the session, which is what prevents a resurrected or
// partitioned stale primary from split-braining.
package replica

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"livesim/internal/faultinject"
	"livesim/internal/frame"
	"livesim/internal/obs"
	"livesim/internal/server/client"
	"livesim/internal/wal"
	"livesim/internal/wire"
)

// batchFormat heads a shipped record batch. A build reads only the
// version it writes: both ends of a stream run the same build.
var batchFormat = frame.Header{Magic: "LSRB", Min: 2, Max: 2}

// MaxBatchBytes bounds one encoded batch so its replapply request fits
// a wire line: JSON base64-encodes the blob (4/3 overhead), and half the
// line limit leaves that plus comfortable headroom for the envelope. The
// shipper splits larger tails into consecutive acked batches.
const MaxBatchBytes = wire.MaxLine / 2

const (
	// callTimeout bounds each seed/batch round trip.
	callTimeout = 5 * time.Second
	// redialEvery rate-limits reconnect attempts while the stream is
	// broken, so a dead standby costs the mutation path one clock read,
	// not a dial timeout.
	redialEvery = 500 * time.Millisecond
)

// ErrFenced is returned when the standby rejects the stream or seed
// because it holds a newer fencing epoch — this primary is stale and
// must stop serving mutations for the session.
var ErrFenced = errors.New("replication stream fenced by newer epoch")

// ErrReseed is returned when the standby cannot apply the shipped tail
// from records alone (a reanchor crossed the stream: its checkpoint
// exists only on the primary's disk). The caller re-seeds the standby
// with a fresh transfer blob; the stream itself is healthy.
var ErrReseed = errors.New("standby needs a fresh seed (reanchor in stream)")

// Ack is the standby's structured answer to a seed or batch: its
// journal head after applying (the primary's new acked watermark) and
// the epoch it holds. A wire.CodeReplResync rejection carries it too, telling
// the shipper where to restart the tail.
type Ack struct {
	AckedSeq uint64 `json:"acked_seq"`
	Epoch    uint64 `json:"epoch,omitempty"`
}

// EncodeBatch frames records for shipping: the batch header, a record
// binding the primary's epoch and the sequence number the batch continues
// from (two u64 LE), then each record in the WAL's own encoding. Records
// must be strictly consecutive starting at afterSeq+1 — the invariant the
// standby re-checks on decode.
func EncodeBatch(epoch, afterSeq uint64, recs []*wal.Record) ([]byte, error) {
	var pos [16]byte
	binary.LittleEndian.PutUint64(pos[:], epoch)
	binary.LittleEndian.PutUint64(pos[8:], afterSeq)
	buf := batchFormat.Append(make([]byte, 0, frame.HeaderLen+frame.RecordHeaderLen+len(pos)+64*len(recs)))
	buf = frame.AppendRecord(buf, pos[:])
	want := afterSeq
	for _, r := range recs {
		if r.Seq != want+1 {
			return nil, fmt.Errorf("replica batch: record seq %d after %d (must be consecutive)", r.Seq, want)
		}
		want = r.Seq
		rec, err := wal.EncodeRecord(r)
		if err != nil {
			return nil, err
		}
		buf = append(buf, rec...)
	}
	return buf, nil
}

// DecodeBatch validates and parses a shipped batch. It never panics
// whatever the input: a short or foreign header, an unsupported
// version, framing damage, a CRC mismatch or a sequence gap are all
// errors — a batch applies completely or not at all (there is no
// partial-prefix recovery here; the primary just resends).
func DecodeBatch(data []byte) (epoch, afterSeq uint64, recs []*wal.Record, err error) {
	_, body, err := batchFormat.Read(data)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("replica batch: %w", err)
	}
	pos, n, err := frame.ReadRecord(body, 16)
	if err == nil && len(pos) != 16 {
		err = fmt.Errorf("position record of %d bytes, want 16", len(pos))
	}
	if err != nil {
		return 0, 0, nil, fmt.Errorf("replica batch: %w", err)
	}
	epoch, afterSeq = binary.LittleEndian.Uint64(pos), binary.LittleEndian.Uint64(pos[8:])
	// DecodeSegment reads to the end of its input: a clean decode leaves
	// no trailing bytes.
	if recs, _, err = wal.DecodeSegment(body[n:], afterSeq); err != nil {
		return 0, 0, nil, fmt.Errorf("replica batch: %w", err)
	}
	return epoch, afterSeq, recs, nil
}

// Config parameterizes one session's shipper.
type Config struct {
	// Session names the replicated session; Target is the standby's wire
	// address ("unix:<path>", "tcp:<host:port>" or bare); WALPath is the
	// primary's journal file the tail is read from.
	Session string
	Target  string
	WALPath string
	// Epoch is the primary's fencing token, stamped on every seed and
	// batch so a promoted standby can reject a stale stream.
	Epoch uint64
	// Faults injects drop-stream and stage failures; Metrics (the
	// session's registry, may be nil) receives the repl_* gauges.
	Faults  *faultinject.Plan
	Metrics *obs.Registry
}

// Shipper streams one session's WAL tail to its standby. All methods
// are safe for concurrent use, though the server serializes Seed and
// Ship on the session worker.
type Shipper struct {
	cfg Config

	mu sync.Mutex
	// cli is the stream's wire client; nil while the stream is broken.
	cli      *client.Client
	sentSeq  uint64 // highest seq the standby acked (resume point)
	off      int64  // journal byte offset of sentSeq's frame end
	batches  int    // lifetime batch count, for the drop-stream fault
	lastDial time.Time
	fenced   bool // the standby holds a newer epoch: terminal

	// acked is atomic so the hot read paths (lag gauges, the sessions
	// listing) never touch the shipper mutex.
	acked atomic.Uint64
}

// New builds a shipper; no connection is made until Seed or Ship.
func New(cfg Config) *Shipper { return &Shipper{cfg: cfg} }

// Target returns the standby's wire address.
func (s *Shipper) Target() string { return s.cfg.Target }

// AckedSeq returns the highest journal sequence the standby has
// durably acknowledged.
func (s *Shipper) AckedSeq() uint64 { return s.acked.Load() }

// Stop closes the stream. The shipper stays queryable (acked watermark)
// but ships nothing more.
func (s *Shipper) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.severLocked()
}

// Seed hands the standby the session's full transfer blob to land as a
// follower, establishing (or re-establishing) the replication baseline at
// journal sequence seq. On success the acked watermark starts at seq
// and subsequent Ship calls send only the tail past it, reading the
// journal from off: its size when seq was its head (0 rescans it whole).
func (s *Shipper) Seed(blob []byte, seq uint64, off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fenced {
		return ErrFenced
	}
	if err := s.cfg.Faults.ReplFault("seed"); err != nil {
		return err
	}
	resp, err := s.call(&wire.Request{
		Session: s.cfg.Session, Verb: "import", Blob: blob, Epoch: s.cfg.Epoch,
	})
	if err != nil {
		return err
	}
	if !resp.OK {
		if resp.Code == wire.CodeFenced {
			return s.fenceLocked(resp.Error)
		}
		return fmt.Errorf("seed rejected: %s (%s)", resp.Error, resp.Code)
	}
	s.sentSeq = seq
	s.off = off
	s.acked.Store(seq)
	s.gauges(seq)
	s.cfg.Metrics.Counter("repl_seeds").Inc()
	return nil
}

// ShipTraced sends every journal record past the acked watermark and
// waits for the standby's durable ack — called on the session worker
// after each committed mutation, so a client ack implies standby
// durability. A broken stream reconnects (rate-limited) and resumes from
// the acked watermark; ErrFenced is terminal. Each replapply request
// carries the mutation's trace id and the primary's ship span sid, so
// the standby's spans assemble into the same fleet tree as the gateway's
// and the primary's.
func (s *Shipper) ShipTraced(trace, parentSID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fenced {
		return ErrFenced
	}
	if err := s.cfg.Faults.ReplFault("ship"); err != nil {
		s.severLocked()
		return err
	}

	recs, newOff, err := wal.ReadSince(s.cfg.WALPath, s.sentSeq, s.off)
	if err != nil {
		// Offset bookkeeping out of step with the file (e.g. after a
		// reseed): one full rescan before giving up.
		recs, newOff, err = wal.ReadSince(s.cfg.WALPath, s.sentSeq, 0)
		if err != nil {
			return err
		}
	}
	if len(recs) == 0 {
		s.off = newOff
		return nil
	}

	for len(recs) > 0 {
		n := len(recs)
		batch, err := EncodeBatch(s.cfg.Epoch, s.sentSeq, recs[:n])
		for err == nil && len(batch) > MaxBatchBytes && n > 1 {
			n = n / 2
			batch, err = EncodeBatch(s.cfg.Epoch, s.sentSeq, recs[:n])
		}
		if err != nil {
			return err
		}

		s.batches++
		if s.cfg.Faults.ReplDrop(s.batches) {
			s.severLocked()
			return fmt.Errorf("replica stream severed (injected) before batch %d", s.batches)
		}

		resp, cerr := s.call(&wire.Request{
			Session: s.cfg.Session, Verb: "replapply",
			TraceID: trace, ParentSpan: parentSID,
			Blob: batch, Epoch: s.cfg.Epoch,
		})
		if cerr != nil {
			return cerr
		}
		var ack Ack
		if resp.Data != nil {
			json.Unmarshal(resp.Data, &ack)
		}
		if !resp.OK {
			switch resp.Code {
			case wire.CodeFenced:
				return s.fenceLocked(resp.Error)
			case wire.CodeReplReseed:
				return fmt.Errorf("%w: %s", ErrReseed, resp.Error)
			case wire.CodeReplResync:
				// The standby's head does not line up with our watermark
				// (a reseed or its own restart); adopt its head and let
				// the next iteration re-read the tail from there.
				s.sentSeq = ack.AckedSeq
				s.off = 0
				s.acked.Store(ack.AckedSeq)
				var rerr error
				recs, newOff, rerr = wal.ReadSince(s.cfg.WALPath, s.sentSeq, 0)
				if rerr != nil {
					return rerr
				}
				continue
			default:
				return fmt.Errorf("batch rejected: %s (%s)", resp.Error, resp.Code)
			}
		}
		s.sentSeq = recs[n-1].Seq
		recs = recs[n:]
		if ack.AckedSeq >= s.sentSeq {
			s.acked.Store(ack.AckedSeq)
		} else {
			s.acked.Store(s.sentSeq)
		}
		s.cfg.Metrics.Counter("repl_batches").Inc()
		s.cfg.Metrics.Counter("repl_records").Add(uint64(n))
		s.cfg.Metrics.Counter("repl_bytes").Add(uint64(len(batch)))
	}
	s.off = newOff
	s.gauges(s.acked.Load())
	return nil
}

// fenceLocked records the terminal fenced state, closes the stream and
// returns the ErrFenced the caller reports.
func (s *Shipper) fenceLocked(detail string) error {
	s.fenced = true
	s.severLocked()
	s.cfg.Metrics.Counter("repl_fenced").Inc()
	return fmt.Errorf("%w: %s", ErrFenced, detail)
}

func (s *Shipper) gauges(acked uint64) {
	s.cfg.Metrics.Gauge("repl_acked_seq").Set(acked)
}

// call runs one request against the standby, (re)connecting as
// needed, over a fail-fast client: the shipper owns the retry policy,
// and an overloaded standby must surface, not stall the mutation path.
// Any transport failure severs the stream. The caller holds s.mu.
func (s *Shipper) call(req *wire.Request) (*wire.Response, error) {
	if s.cli == nil {
		if since := time.Since(s.lastDial); since < redialEvery {
			return nil, fmt.Errorf("replica stream to %s broken (retry in %s)",
				s.cfg.Target, redialEvery-since)
		}
		s.lastDial = time.Now()
		cli, err := client.DialOptions(s.cfg.Target, client.Options{OverloadRetries: -1})
		if err != nil {
			s.cfg.Metrics.Counter("repl_dial_failures").Inc()
			return nil, err
		}
		s.cli = cli
		s.cfg.Metrics.Counter("repl_dials").Inc()
	}
	resp, err := s.cli.DoTimeout(req, callTimeout)
	if err != nil {
		s.severLocked()
		return nil, err
	}
	return resp, nil
}

func (s *Shipper) severLocked() {
	if s.cli != nil {
		s.cli.Close()
		s.cli = nil
	}
}
