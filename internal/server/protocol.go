// Package server is livesimd's engine: it hosts many independent
// core.Sessions and serves them to concurrent clients over TCP or unix
// sockets with a newline-delimited JSON protocol.
//
// Each hosted session owns a dedicated worker goroutine behind a bounded
// request queue, so all operations on one session are serialized while
// different sessions run fully in parallel. A full queue rejects the
// request immediately with ErrBackpressure (code "backpressure") instead
// of blocking the connection reader — a hot session never wedges the
// accept path or other clients. Requests carry a server-wide deadline;
// panics anywhere in request handling are converted to error responses
// the way internal/core's health layer converts testbench panics, so one
// poisoned request cannot take the daemon down. Idle sessions are
// evicted (checkpointed first when dirty), and a graceful drain — wired
// to SIGTERM in cmd/livesimd — stops accepting, finishes in-flight
// requests, checkpoints every dirty session through the atomic
// checkpoint writer and reports what it saved.
//
// The wire protocol itself — envelope, framing, codes, connection
// plumbing — is internal/wire; this package is what answers it.
package server

import (
	"errors"

	"livesim/internal/govern"
	"livesim/internal/obs"
	"livesim/internal/wire"
)

// Request and Response are the wire envelope. They are aliases because
// the benchmark and the tests spell them server.Request; nothing else
// of internal/wire is re-exported.
type (
	Request  = wire.Request
	Response = wire.Response
)

// ErrBackpressure is returned (and wired to wire.CodeBackpressure) when a
// session's bounded request queue is full.
var ErrBackpressure = errors.New("session queue full (backpressure)")

// ErrDraining (wire.ErrDraining) answers requests arriving during a
// graceful drain.
var ErrDraining = wire.ErrDraining

// ErrDeadline is returned when a request misses its deadline.
var ErrDeadline = errors.New("request deadline exceeded")

// ErrRecovering is returned for requests that hit a session still being
// replayed from its journal after a restart.
var ErrRecovering = errors.New("session is recovering; retry shortly")

// ErrQuarantined is wrapped by rejections of mutating verbs on a
// quarantined session.
var ErrQuarantined = errors.New("session is quarantined")

// ErrOverloaded and ErrDiskFull are the typed resource-governance
// rejections (re-exported so wire clients don't import internal/govern).
var (
	ErrOverloaded = govern.ErrOverloaded
	ErrDiskFull   = govern.ErrDiskFull
)

// ErrSessionLimit is wrapped by create and import rejections once the
// daemon hosts its maximum number of sessions.
var ErrSessionLimit = errors.New("session limit reached")

// ErrMoved is wrapped by CodeMoved rejections after a migration.
var ErrMoved = errors.New("session moved to another backend")

// ErrFenced is wrapped by CodeFenced rejections: the session here is a
// stale primary superseded by a promoted replica.
var ErrFenced = errors.New("session fenced (stale primary; replica was promoted)")

// ErrFollower is wrapped by CodeFollower rejections of direct mutations
// against a replication standby.
var ErrFollower = errors.New("session is a replication follower (mutations come from the primary)")

// SessionInfo is one row of the `sessions` verb's Data payload.
type SessionInfo struct {
	Name        string   `json:"name"`
	Pipes       []string `json:"pipes"`
	Dirty       bool     `json:"dirty"`
	Queued      int      `json:"queued"`
	IdleSecs    float64  `json:"idle_secs"`
	Version     string   `json:"version"`
	Subscribers int      `json:"subscribers"`
	// Quarantined is set while the session's failure breaker is open
	// (mutations rejected); Recovering while journal replay is rebuilding
	// it after a restart (all session verbs rejected).
	Quarantined bool `json:"quarantined,omitempty"`
	Recovering  bool `json:"recovering,omitempty"`
	// MemBytes is the session's estimated memory footprint (checkpoint
	// history + live pipe state + journal tail).
	MemBytes uint64 `json:"mem_bytes,omitempty"`
	// WALBytes is the session's journal size on disk — what a seed
	// ships. The gateway orders drain migrations cheapest-first by this.
	// Zero when journaling is disabled.
	WALBytes int64 `json:"wal_bytes,omitempty"`
	// MarkSeq/MarkCycle describe the last checkpoint watermark: the
	// journal sequence the marks were written at and the highest pipe
	// cycle they cover. The distance from MarkSeq to the journal head is
	// the replay work a seed or crash recovery must do.
	MarkSeq   uint64 `json:"mark_seq,omitempty"`
	MarkCycle uint64 `json:"mark_cycle,omitempty"`
	// Replication state. Epoch is the fencing token the session serves
	// under; Follower marks a standby applying a primary's stream; Fenced
	// marks a stale primary whose replica was promoted. HeadSeq is the
	// journal head; on a primary with a replica, ReplicaAddr names the
	// standby, ReplAckedSeq the highest sequence it durably acked, and
	// ReplLag = HeadSeq - ReplAckedSeq is the unshipped tail.
	Epoch        uint64 `json:"epoch,omitempty"`
	Follower     bool   `json:"follower,omitempty"`
	Fenced       bool   `json:"fenced,omitempty"`
	HeadSeq      uint64 `json:"head_seq,omitempty"`
	ReplicaAddr  string `json:"replica_addr,omitempty"`
	ReplAckedSeq uint64 `json:"repl_acked_seq,omitempty"`
	ReplLag      uint64 `json:"repl_lag,omitempty"`
}

// SpanDump is the `spans <trace-id>` verb's Data payload: one process's
// stored spans for a trace. The gateway fans this out to every backend
// and merges the records into the assembled fleet tree.
type SpanDump struct {
	Proc  string           `json:"proc"`
	Spans []obs.SpanRecord `json:"spans"`
}

// DrainReport is what Shutdown returns: which sessions were checkpointed
// where. It is also written to <drain-dir>/drain.json via the atomic
// checkpoint writer.
type DrainReport struct {
	Sessions []DrainedSession `json:"sessions"`
	// Timeout is set when the drain deadline expired before all in-flight
	// requests finished; the checkpoint pass still ran.
	Timeout bool `json:"timeout,omitempty"`
}

// DrainedSession records what one drained session left behind: the
// checkpoints saved when it was dirty, and its final metrics snapshot
// either way (drain.json is the post-mortem record — a SIGTERM must not
// discard the numbers that explain the run).
type DrainedSession struct {
	Name  string            `json:"name"`
	Files map[string]string `json:"files,omitempty"` // pipe -> checkpoint path
	// Errors records pipes whose checkpoint save failed even after the
	// bounded retries (pipe -> error). A drain with any entry here makes
	// Shutdown return an error so the daemon exits nonzero — the manifest
	// carries the evidence instead of silently dropping it.
	Errors map[string]string `json:"errors,omitempty"`
	// Metrics is the session registry's final snapshot.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// TopRow is one session's row in the `top` verb's Data payload — the
// live operational view: current request rate and latency quantiles
// from the session's rolling window, plus queue and health flags.
type TopRow struct {
	Name        string  `json:"name"`
	ReqPerSec   float64 `json:"req_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	Queued      int     `json:"queued"`
	Requests    uint64  `json:"requests"`
	Version     string  `json:"version"`
	Dirty       bool    `json:"dirty,omitempty"`
	Quarantined bool    `json:"quarantined,omitempty"`
	Recovering  bool    `json:"recovering,omitempty"`
}
