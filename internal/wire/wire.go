// Package wire is the one place that knows livesim's wire protocol: the
// request/response envelope, the line framing and its size bound, the
// address syntax, the connection plumbing every speaker shares
// (livesimd, lsgate, the client and — through the client — the
// replication shipper), and the one request life both daemons serve
// through (Envelope: drain gate, in-flight count, request span, panic
// recovery, unknown-verb answer). Its only import from this repository
// is internal/obs, which imports only the standard library, so any
// package may depend on it.
//
// The protocol is one JSON object per line in each direction, over TCP
// or a unix socket. Requests name a verb: either a server verb (create,
// close, sessions, ping, metricz, subscribe, help, …) or any session
// verb of internal/catalogue — run, apply, profile, stats and the rest
// of the same table the interactive shell dispatches into, so the wire
// vocabulary and `help` can never drift from the shell. Responses echo
// the request id, so requests pipeline and answers may arrive in any
// order; `subscribe` additionally streams span events (objects with an
// "ev" field, no "id") onto the connection as the watched session
// works. Blank lines are ignored; a line that is not JSON is answered
// with code "bad_request" and the connection stays usable. A line —
// terminator included — longer than MaxLine cannot be framed: a request
// that long is answered with "bad_request" before the connection
// closes, and a response that long is replaced by a typed "error"
// response with the same id. Lines are written and read without
// reflection by the package's codec (codec.go): the bytes it writes are
// encoding/json's, and a line it cannot read exactly as encoding/json
// would is left to encoding/json.
package wire

import (
	"bufio"
	"encoding/json"
	"strings"
	"time"
)

// MaxLine bounds one protocol line, newline included. Design sources,
// migration transfer blobs and replication batches ride in lines, so
// the bound is generous; whatever embeds a payload in a request sizes
// it against this constant.
const MaxLine = 16 * 1024 * 1024

// WriteTimeout bounds each response or event write, so a client that
// stops reading can only hurt its own connection.
const WriteTimeout = 10 * time.Second

// ErrTooLong is wrapped by every failure to frame a line within MaxLine.
var ErrTooLong = bufio.ErrTooLong

// Request is one client → server message.
type Request struct {
	// ID is echoed on the response so clients can pipeline requests.
	ID uint64 `json:"id"`
	// Session names the target session. Required for session verbs and
	// create/close/subscribe (empty on subscribe = server-level spans).
	Session string `json:"session,omitempty"`
	// Verb is a server verb or a session verb of internal/catalogue.
	Verb string `json:"verb"`
	// TraceID correlates this request across process boundaries: the
	// client stamps it (see client.Do), the server opens its request span
	// with it, and the session's live-loop spans inherit it — one hot
	// reload reads as a single span tree from client call to verify
	// completion. Empty means "server, mint one".
	TraceID string `json:"trace,omitempty"`
	// ParentSpan is the sid of the caller's span this request happened
	// under (the gateway stamps its forward span's sid here). The
	// receiver's request span parents on it, which is what joins
	// per-process span trees into one fleet-wide tree. Empty = root.
	ParentSpan string `json:"pspan,omitempty"`
	// Args are the verb's positional arguments, shell-style.
	Args []string `json:"args,omitempty"`
	// Files carries design source text: the full design for create (dir
	// flavour) and the edited snapshot for apply.
	Files map[string]string `json:"files,omitempty"`
	// Top is the top-level module for a files-based create (default "top").
	Top string `json:"top,omitempty"`
	// PGAS selects the built-in n-node mesh demo for create.
	PGAS int `json:"pgas,omitempty"`
	// CheckpointEvery overrides the created session's checkpoint interval.
	CheckpointEvery uint64 `json:"ckpt_every,omitempty"`
	// Blob carries a migration transfer image (internal/transfer framing)
	// for the import verb, or a replication batch (internal/replica
	// framing) for replapply. JSON base64-encodes it on the wire.
	Blob []byte `json:"blob,omitempty"`
	// Epoch is the replication fencing token. The gateway stamps it on
	// forwarded mutations so a backend holding a different epoch rejects
	// them (split-brain protection); replication seeds, batches and the
	// promote verb carry the epoch they operate under. Zero means
	// unstamped (direct clients) and is never checked.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Response is one server → client reply.
type Response struct {
	ID uint64 `json:"id"`
	OK bool   `json:"ok"`
	// Output is the verb's human-readable output (what the shell would
	// have printed), including any $display text the operation produced.
	Output string `json:"output,omitempty"`
	// Error and Code are set when OK is false; Code is one of the Code*
	// constants so clients can react without parsing Error text.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
	// RetryAfterMs accompanies CodeOverloaded: the server's suggested
	// backoff before retrying, sized to how far over budget the daemon
	// is. Clients add jitter (see client.Do) so rejected callers don't
	// retry in lockstep.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// MovedTo accompanies CodeMoved: the address ("unix:/path" or
	// "host:port") now hosting the session this request named. Clients
	// with FollowMoves enabled redial there and resend — a moved
	// rejection always happens before the verb executes, so the resend
	// is safe for any verb.
	MovedTo string `json:"moved_to,omitempty"`
	// Data carries structured payloads (stats snapshots, session lists).
	Data json.RawMessage `json:"data,omitempty"`
}

// Typed error codes carried in Response.Code.
const (
	// CodeBackpressure: the session's request queue was full.
	CodeBackpressure = "backpressure"
	// CodeTimeout: the request missed its deadline (still executed if it
	// had already reached the worker; the result was discarded).
	CodeTimeout = "timeout"
	// CodeDraining: the server is shutting down and takes no new work.
	CodeDraining = "draining"
	// CodePanic: request handling panicked and was recovered.
	CodePanic = "panic"
	// CodeBadRequest: malformed line, verb, arguments or session name.
	CodeBadRequest = "bad_request"
	// CodeNoSession: the named session does not exist (or already does,
	// for create).
	CodeNoSession = "no_session"
	// CodeRecovering: the session is being rebuilt from its journal after
	// a daemon restart; retry shortly.
	CodeRecovering = "recovering"
	// CodeQuarantined: the session's failure breaker is open — mutating
	// verbs are rejected until an operator runs `unquarantine`.
	CodeQuarantined = "quarantined"
	// CodeOverloaded: the process-wide admission budget is exhausted —
	// too much work in flight across all sessions. The response carries
	// retry_after_ms; retrying after that backoff is always safe because
	// an overload rejection happens before the verb executes.
	CodeOverloaded = "overloaded"
	// CodeSessionLimit: create was rejected because the daemon already
	// hosts its maximum number of sessions (64). Distinct from CodeBackpressure (a transient
	// full queue): the limit clears only when a session is closed or
	// evicted, so retrying without acting on that is pointless.
	CodeSessionLimit = "session_limit"
	// CodeDiskFull: the mutation was not applied. Either the state disk
	// is at the emergency rung of the pressure ladder, where mutating
	// verbs are rejected (reads still work) until space is reclaimed, or
	// the session's journal refused the append and the mutation was
	// undone.
	CodeDiskFull = "disk_full"
	// CodeMoved: the session was migrated to another backend; MovedTo
	// carries the new address. Rejection happens before execution, so
	// resending the request there is always safe.
	CodeMoved = "moved"
	// CodeUnavailable: the gateway could not reach the backend hosting
	// this session (crash, partition); retry after retry_after_ms — the
	// backend may recover, or the session may be re-routed.
	CodeUnavailable = "unavailable"
	// CodeFenced: the session's replication epoch says this backend is a
	// stale primary — its standby was promoted under a newer fencing
	// token — so mutations are rejected to prevent split-brain. The
	// session's state here is a dead branch; the gateway routes clients
	// to the promoted replica.
	CodeFenced = "fenced"
	// CodeFollower: the session is a replication standby; it accepts
	// mutations only through the primary's replapply stream. Reads work.
	CodeFollower = "follower"
	// CodeReplResync: a replapply batch did not continue from this
	// follower's journal head; the response Data carries the head
	// (replica.Ack) so the shipper resends the tail from there.
	CodeReplResync = "repl_resync"
	// CodeReplReseed: a replapply batch failed part way on the follower,
	// leaving its live state and journal out of step, so the primary
	// must re-seed it with a fresh transfer blob.
	CodeReplReseed = "repl_reseed"
	// CodeError: any other execution failure.
	CodeError = "error"
)

// SplitAddr resolves the address syntax shared by every frontend flag:
// "unix:<path>", "tcp:<host:port>", or bare — a bare address containing
// a path separator is a unix socket, anything else TCP.
func SplitAddr(addr string) (network, target string) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", strings.TrimPrefix(addr, "unix:")
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", strings.TrimPrefix(addr, "tcp:")
	case strings.ContainsAny(addr, "/\\"):
		return "unix", addr
	default:
		return "tcp", addr
	}
}
