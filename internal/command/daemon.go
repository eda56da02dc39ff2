package command

// The daemon verbs: what livesimd and lsgate answer beyond the shared
// session verbs. Their bodies are in each daemon's handler map; Place,
// Cost and Mutates are decided here. Listed in help order.
func init() {
	for _, v := range []*Verb{
		// livesimd. Session creation and the replication seed weigh like
		// a heavy verb (compile, boot, journal and checkpoint IO). The
		// replication stream and failover stay free: rejecting them under
		// overload would turn load into lag or a failed failover, and the
		// primary's own mutation path paces them. Every other operator
		// verb is free, so overload can always be diagnosed from outside.
		{Name: "create", Usage: "create [pgas N | files]", Help: "create a session (name in \"session\")", Place: Conn, Cost: 8, Mutates: true},
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
		{Name: "ping", Usage: "ping", Help: "liveness + uptime", Place: Conn, Cost: 0},
		{Name: "help", Usage: "help", Help: "this text", Place: Conn, Cost: 0},

		// lsgate, which has no admission budget of its own.
		{Name: "backends", Usage: "backends", Help: "backend pool health and route counts", Place: Gateway},
		{Name: "sessions", Usage: "sessions", Help: "sessions aggregated across all backends", Place: Gateway},
		{Name: "create", Usage: "create [pgas N | files]", Help: "place a session by rendezvous hash and create it there", Place: Gateway, Mutates: true},
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
