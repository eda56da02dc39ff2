// Package catalogue is the one table of livesim's wire verbs. Each entry
// says what a verb is called, how it is used, where it runs (a session's
// worker, a livesimd connection, or lsgate), what it costs against
// livesimd's admission budget, whether it mutates, how many arguments it
// takes and how journal replay treats a record of it. It imports nothing
// from this repository, so every layer reads the same table: livesimd's
// and lsgate's admission and handler lookup, the wire client's resend
// rule, recovery replay in internal/core and internal/server, and every
// help screen. The bodies of the verbs the livesim shell shares with the
// session workers live in internal/command, which attaches them to their
// entries here; the daemon verbs' bodies are in each daemon's handler map.
package catalogue

import (
	"fmt"
	"strings"
)

// Place is where a verb runs.
type Place uint8

const (
	// Worker verbs run on livesimd, on the addressed session's worker
	// goroutine, serialized with everything else touching the session.
	Worker Place = iota
	// Conn verbs run on livesimd, on the connection's goroutine, outside
	// any session.
	Conn
	// Gateway verbs are answered by lsgate itself; lsgate forwards every
	// other verb to the backend hosting the named session.
	Gateway
)

// Replay is how journal replay treats a journaled record of a verb.
type Replay uint8

const (
	// Reexec records are re-executed, and a journal holding one cannot
	// take the watermark fast path: the verb may change the design or
	// read files a checkpoint does not hold.
	Reexec Replay = iota
	// Structural records are re-executed on the fast path too — they
	// build the pipe table a watermark lands on — and are safe there.
	Structural
	// Covered records are skipped on the fast path when a watermark of
	// their pipe covers them: its checkpoint holds their effect.
	Covered
)

// Target says which argument names the one pipe a mutation changes: a
// Target's value is one more than that argument's index. The zero Target
// marks verbs that change no single pipe's state (structural or
// design-wide ones), so replay never skips them for a pipe's sake.
type Target uint8

const (
	// PipeFirst verbs take the pipe first: `<pipe> ...`.
	PipeFirst Target = iota + 1
	// PipeAfterTB verbs take a testbench, then the pipe: `<tb> <pipe>
	// ...`. They run the pipe, and their journal record carries the
	// cycle it ended on.
	PipeAfterTB
)

// Verb is one entry of the catalogue.
type Verb struct {
	Name  string
	Usage string // full usage line, e.g. "run <tb> <pipe> <cycles>"
	Help  string // one-line description for help output
	Place Place
	// Cost weights the verb against livesimd's global admission budget:
	// a 200-cycle run occupies more of the daemon than a cycle query.
	// Every livesimd entry writes it out, because 0 is a real value: free,
	// which keeps the operator verbs answering under overload.
	Cost int64
	// Mutates marks verbs that change state. A client never resends one
	// after a reconnect; for a shared verb the server also journals it,
	// marks the session dirty and puts it behind the mutation gates.
	// Entries of one name agree on it, so the resend class is per name.
	Mutates bool
	// MinArgs/MaxArgs bound len(args) for Run; MaxArgs -1 means variadic.
	MinArgs, MaxArgs int
	// Shell marks the verbs the livesim shell shares with livesimd's
	// session workers; their bodies are internal/command's.
	Shell bool
	// Pipe and Replay are what journal replay needs to know of a
	// journaled record of the verb.
	Pipe   Target
	Replay Replay
	// Run is a Shell verb's body, attached by internal/command: a
	// func(*command.Env, []string) error, a type this package cannot
	// name. Nil for the daemon verbs.
	Run any
}

// Shared reports whether the shell and the session workers share the
// verb's body.
func (v *Verb) Shared() bool { return v.Shell }

// Livesimd reports whether livesimd runs the verb.
func (v *Verb) Livesimd() bool { return v.Place != Gateway }

// PipeOf returns the pipe a record of the verb with args changes, or ""
// when it changes no single pipe.
func (v *Verb) PipeOf(args []string) string {
	if i := int(v.Pipe) - 1; i >= 0 && i < len(args) {
		return args[i]
	}
	return ""
}

var (
	table    []*Verb
	livesimd = map[string]*Verb{}
	lsgate   = map[string]*Verb{}
	resend   = map[string]bool{} // by name: every entry of a name agrees
)

// Register adds a verb to the catalogue. A second entry for a name on
// the same daemon, or one that disagrees with the other daemon's entry
// about Mutates, panics: the catalogue is assembled at init time and a
// collision is a programming error, not a runtime condition.
func Register(v *Verb) {
	own := livesimd
	if !v.Livesimd() {
		own = lsgate
	}
	if _, dup := own[v.Name]; dup {
		panic(fmt.Sprintf("verb %q registered twice", v.Name))
	}
	if r, seen := resend[v.Name]; seen && r == v.Mutates {
		panic(fmt.Sprintf("verb %q: the daemons disagree on Mutates", v.Name))
	}
	own[v.Name], resend[v.Name] = v, !v.Mutates
	table = append(table, v)
}

// Lookup finds the verb livesimd runs under name.
func Lookup(name string) (*Verb, bool) {
	v, ok := livesimd[strings.ToLower(name)]
	return v, ok
}

// Verbs returns the entries in reports true for, in catalogue order.
func Verbs(in func(*Verb) bool) []*Verb {
	var out []*Verb
	for _, v := range table {
		if in(v) {
			out = append(out, v)
		}
	}
	return out
}

// CostOf returns a verb's admission-budget weight on livesimd; an
// unknown name weighs 1, because it still occupies a queue slot until
// it is rejected.
func CostOf(name string) int64 {
	if v, ok := Lookup(name); ok {
		return v.Cost
	}
	return 1
}

// Resendable reports whether a client may send the verb twice: some
// daemon knows it, and it does not mutate. The daemon may have run a
// mutation before the connection died, and an unknown verb is not
// worth the risk.
func Resendable(name string) bool { return resend[strings.ToLower(name)] }

// MustMatch panics unless handlers has one entry per catalogue verb in
// reports true for, and no other: each daemon calls it on its handler
// map when it is built, so a verb cannot be declared and not answered,
// or answered and not declared.
func MustMatch[H any](daemon string, handlers map[string]H, in func(*Verb) bool) {
	want := Verbs(in)
	for _, v := range want {
		if _, ok := handlers[v.Name]; !ok {
			panic(fmt.Sprintf("%s: no handler for catalogue verb %q", daemon, v.Name))
		}
	}
	if len(handlers) != len(want) {
		panic(fmt.Sprintf("%s: %d handlers for %d catalogue verbs", daemon, len(handlers), len(want)))
	}
}

const helpFormat = "  %-29s %s\n"

// helpText renders one aligned line per verb in reports true for.
func helpText(in func(*Verb) bool) string {
	var b strings.Builder
	for _, v := range Verbs(in) {
		fmt.Fprintf(&b, helpFormat, v.Usage, v.Help)
	}
	return b.String()
}

// ShellHelp is the livesim shell's help screen: the shared verbs, then
// the shell's own two.
func ShellHelp() string {
	return "commands (paper Table I plus inspection):\n" + helpText((*Verb).Shared) +
		fmt.Sprintf(helpFormat+helpFormat, "help", "this text", "exit", "leave the shell")
}

// ServerHelp is livesimd's help screen: every verb it runs, once.
func ServerHelp() string {
	return "session verbs (shared with the livesim shell):\n" + helpText((*Verb).Shared) +
		"server verbs:\n" + helpText(func(v *Verb) bool { return v.Livesimd() && !v.Shared() })
}

// GatewayHelp is lsgate's help screen: the verbs it answers itself, then
// every other livesimd verb, which it forwards.
func GatewayHelp() string {
	return "gateway verbs:\n" + helpText(func(v *Verb) bool { return !v.Livesimd() }) +
		"forwarded to the backend hosting the named session:\n" + helpText(func(v *Verb) bool {
		_, own := lsgate[v.Name]
		return v.Livesimd() && !own
	})
}

// createUsage is the form the livesim shell's remote mode accepts and
// turns into a create request's pgas or files fields.
const createUsage = "create pgas <n> | create dir <path> [top]"

func init() {
	for _, v := range []*Verb{
		// The verbs the shell shares with livesimd's session workers: the
		// paper's Table I plus inspection.
		{Name: "ldlib", Usage: "ldlib", Help: "list the Object Library Table", Cost: 1, Shell: true},
		{Name: "instpipe", Usage: "instpipe <name>", Help: "instantiate a pipeline", Mutates: true, Cost: 4, MinArgs: 1, MaxArgs: 1, Shell: true, Replay: Structural},
		{Name: "copypipe", Usage: "copypipe <new> <old>", Help: "copy a pipeline including state", Mutates: true, Cost: 4, MinArgs: 2, MaxArgs: 2, Shell: true},
		{Name: "pipes", Usage: "pipes", Help: "list the Pipeline Table", Cost: 1, Shell: true},
		{Name: "stages", Usage: "stages <pipe>", Help: "list the Stage Table", Cost: 1, MinArgs: 1, MaxArgs: 1, Shell: true},
		{Name: "run", Usage: "run <tb> <pipe> <cycles>", Help: "run a testbench", Mutates: true, Cost: 8, MinArgs: 3, MaxArgs: 3, Shell: true, Pipe: PipeAfterTB, Replay: Covered},
		{Name: "chkp", Usage: "chkp <pipe> <path>", Help: "save a checkpoint file", Cost: 1, MinArgs: 2, MaxArgs: 2, Shell: true},
		{Name: "ldch", Usage: "ldch <pipe> <path>", Help: "load a checkpoint file", Mutates: true, Cost: 2, MinArgs: 2, MaxArgs: 2, Shell: true, Pipe: PipeFirst},
		{Name: "apply", Usage: "apply", Help: "re-read sources and hot reload (ERD loop)", Mutates: true, Cost: 8, Shell: true},
		{Name: "history", Usage: "history", Help: "show the register transform history", Cost: 1, Shell: true},
		{Name: "peek", Usage: "peek <pipe> <hier.signal>", Help: "read a signal", Cost: 1, MinArgs: 2, MaxArgs: 2, Shell: true},
		{Name: "poke", Usage: "poke <pipe> <hier.signal> <v>", Help: "write a signal", Mutates: true, Cost: 2, MinArgs: 3, MaxArgs: 3, Shell: true, Pipe: PipeFirst, Replay: Covered},
		{Name: "trace", Usage: "trace <tb> <pipe> <cycles> <file.vcd> [scope]", Help: "run while dumping a VCD waveform", Mutates: true, Cost: 8, MinArgs: 4, MaxArgs: 5, Shell: true, Pipe: PipeAfterTB},
		{Name: "checkpoints", Usage: "checkpoints <pipe>", Help: "list the pipe's checkpoints", Cost: 1, MinArgs: 1, MaxArgs: 1, Shell: true},
		{Name: "cycle", Usage: "cycle <pipe>", Help: "show the pipe's cycle", Cost: 1, MinArgs: 1, MaxArgs: 1, Shell: true},
		{Name: "health", Usage: "health", Help: "show the session's robustness summary", Cost: 1, Shell: true},
		// profile is deliberately Mutates: false — it changes only
		// observability state, never simulated state, so the server neither
		// journals it nor needs a checkpoint before eviction, and a client
		// may safely resend it after a reconnect.
		{Name: "profile", Usage: "profile <start|stop|report|reset> [pipe] [json]", Help: "control the activity/heat profiler", Cost: 1, MinArgs: 1, MaxArgs: 3, Shell: true},
		{Name: "stats", Usage: "stats [json]", Help: "dump the metrics registry", Cost: 1, MinArgs: 0, MaxArgs: 1, Shell: true},

		// livesimd. Session creation and the replication seed weigh like
		// a heavy verb (compile, boot, journal and checkpoint IO). The
		// replication stream and failover stay free: rejecting them under
		// overload would turn load into lag or a failed failover, and the
		// primary's own mutation path paces them. Every other operator
		// verb is free, so overload can always be diagnosed from outside.
		{Name: "create", Usage: createUsage, Help: "create a session (name in \"session\")", Place: Conn, Cost: 8, Mutates: true},
		{Name: "close", Usage: "close [moved <addr>]", Help: "discard a session (optionally leaving a forwarding tombstone)", Place: Conn, Cost: 0, Mutates: true},
		{Name: "replicate", Usage: "replicate <addr>|stop", Help: "stream committed WAL records to a standby (seeded unless it already is one)", Place: Worker, Cost: 8, Mutates: true},
		{Name: "import", Usage: "import", Help: "land a replication seed blob as a follower (sent by replicate)", Place: Conn, Cost: 8, Mutates: true},
		{Name: "replapply", Usage: "replapply", Help: "apply one shipped batch on a follower (sent by replicate's stream)", Place: Worker, Cost: 0, Mutates: true},
		{Name: "promote", Usage: "promote", Help: "promote a follower to primary under a new fencing epoch", Place: Worker, Cost: 0, Mutates: true},
		{Name: "drain", Usage: "drain", Help: "request a graceful drain (same path as SIGTERM)", Place: Conn, Cost: 0, Mutates: true},
		{Name: "sessions", Usage: "sessions", Help: "list hosted sessions", Place: Conn, Cost: 0},
		// subscribe changes no state a resend could repeat, but it binds the
		// stream to the connection it arrived on: resent on a new one, it
		// would not be the subscription the caller asked for.
		{Name: "subscribe", Usage: "subscribe", Help: "stream span events (empty session = server spans)", Place: Conn, Cost: 0, Mutates: true},
		{Name: "unquarantine", Usage: "unquarantine", Help: "clear a session's failure breaker", Place: Conn, Cost: 0, Mutates: true},
		{Name: "metricz", Usage: "metricz", Help: "server-level metrics registry", Place: Conn, Cost: 0},
		{Name: "events", Usage: "events [since-seq]", Help: "recent operational events", Place: Conn, Cost: 0},
		{Name: "spans", Usage: "spans [trace-id]", Help: "this process's span store: index, or one trace's spans", Place: Conn, Cost: 0},
		{Name: "top", Usage: "top", Help: "live per-session req/s + latency table", Place: Conn, Cost: 0},
		{Name: "ping", Usage: "ping", Help: "liveness + the /healthz verdict (status, uptime, sessions, draining, disk level)", Place: Conn, Cost: 0},
		{Name: "help", Usage: "help", Help: "this text", Place: Conn, Cost: 0},

		// lsgate, which has no admission budget of its own.
		{Name: "backends", Usage: "backends", Help: "backend pool health and route counts", Place: Gateway},
		{Name: "sessions", Usage: "sessions", Help: "sessions aggregated across all backends", Place: Gateway},
		{Name: "create", Usage: createUsage, Help: "place a session by rendezvous hash and create it there", Place: Gateway, Mutates: true},
		{Name: "migrate", Usage: "migrate [target-addr]", Help: "live-migrate a session (name in \"session\")", Place: Gateway, Mutates: true},
		{Name: "drain", Usage: "drain <backend-addr>", Help: "move every session and standby off a backend, then drain it", Place: Gateway, Mutates: true},
		// The fleet form only reads, but it shares its name with the session
		// verb, and a client cannot tell which form a request will take.
		{Name: "trace", Usage: "trace [trace-id]", Help: "assemble one trace's span tree across the fleet (forwarded with a session and run args)", Place: Gateway, Mutates: true},
		{Name: "subscribe", Usage: "subscribe", Help: "refused: connect to the backend directly (see backends)", Place: Gateway, Mutates: true},
		{Name: "metricz", Usage: "metricz", Help: "gateway metrics registry", Place: Gateway},
		{Name: "events", Usage: "events [since-seq]", Help: "gateway operational events", Place: Gateway},
		{Name: "ping", Usage: "ping", Help: "gateway liveness + pool summary", Place: Gateway},
		{Name: "help", Usage: "help", Help: "this text", Place: Gateway},
	} {
		Register(v)
	}
}
