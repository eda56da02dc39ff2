// Package command is LiveSim's one catalogue of wire verbs. Each entry
// says what a verb is called, how it is used, where it runs (a session's
// worker, a livesimd connection, or lsgate), what it costs against
// livesimd's admission budget and whether it mutates. The session verbs
// of the paper's Table I plus the inspection commands also carry their
// body here: the interactive shell in cmd/livesim and the session
// workers of internal/server both run them through Dispatch, so their
// behaviour cannot drift between frontends. The daemon verbs' bodies live
// in each daemon's handler map, which must name exactly the daemon's
// verbs of this catalogue. Admission cost, client resend and every help
// screen are read from here.
package command

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"livesim/internal/core"
	"livesim/internal/liveparser"
	"livesim/internal/obs"
	"livesim/internal/trace"
)

// Env is everything a shared verb needs to run. Out receives the
// verb's human-readable output (the shell points it at stdout; the
// server captures it into the response). ApplySource supplies the full
// design source for `apply` — the shell re-reads its -dir, the server
// takes the files shipped in the request — and nil disables the verb.
type Env struct {
	Session *core.Session
	// Metrics backs the `stats` command; nil reports metrics as disabled.
	Metrics *obs.Registry
	// ApplySource returns the edited design source for `apply`.
	ApplySource func() (liveparser.Source, error)
	Out         io.Writer
}

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
	// Run is the body of a verb shared with the livesim shell; nil for
	// the daemon verbs, whose bodies live in the daemons.
	Run func(env *Env, args []string) error
}

// Shared reports whether the shell and the session workers share the
// verb's body.
func (v *Verb) Shared() bool { return v.Run != nil }

// Livesimd reports whether livesimd runs the verb.
func (v *Verb) Livesimd() bool { return v.Place != Gateway }

var (
	catalogue []*Verb
	livesimd  = map[string]*Verb{}
	lsgate    = map[string]*Verb{}
	resend    = map[string]bool{} // by name: every entry of a name agrees
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
	catalogue = append(catalogue, v)
}

// Lookup finds the verb livesimd runs under name.
func Lookup(name string) (*Verb, bool) {
	v, ok := livesimd[strings.ToLower(name)]
	return v, ok
}

// Verbs returns the entries in reports true for, in catalogue order.
func Verbs(in func(*Verb) bool) []*Verb {
	var out []*Verb
	for _, v := range catalogue {
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

// Dispatch validates the argument count and runs the named shared verb.
// The daemon verbs are unknown here: the shell cannot run them.
func Dispatch(env *Env, name string, args []string) error {
	v, ok := Lookup(name)
	if !ok || !v.Shared() {
		return fmt.Errorf("unknown command %q (try help)", name)
	}
	if len(args) < v.MinArgs || (v.MaxArgs >= 0 && len(args) > v.MaxArgs) {
		return fmt.Errorf("usage: %s", v.Usage)
	}
	return v.Run(env, args)
}

// DispatchLine splits a shell line into verb and arguments and runs it.
func DispatchLine(env *Env, line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	return Dispatch(env, fields[0], fields[1:])
}

func init() {
	Register(&Verb{
		Name: "ldlib", Usage: "ldlib", Help: "list the Object Library Table", Cost: 1,
		Run: func(env *Env, _ []string) error {
			for _, e := range env.Session.Library() {
				fmt.Fprintf(env.Out, "  %-10s %-10s %-30s %s\n", e.Handle, e.Type, e.CodePath, e.ObjectPath)
			}
			return nil
		},
	})

	Register(&Verb{
		Name: "instpipe", Usage: "instpipe <name>", Help: "instantiate a pipeline", Mutates: true, Cost: 4, MinArgs: 1, MaxArgs: 1,
		Run: func(env *Env, args []string) error {
			_, err := env.Session.InstPipe(args[0])
			return err
		},
	})

	Register(&Verb{
		Name: "copypipe", Usage: "copypipe <new> <old>", Help: "copy a pipeline including state", Mutates: true, Cost: 4, MinArgs: 2, MaxArgs: 2,
		Run: func(env *Env, args []string) error {
			_, err := env.Session.CopyPipe(args[0], args[1])
			return err
		},
	})

	Register(&Verb{
		Name: "pipes", Usage: "pipes", Help: "list the Pipeline Table", Cost: 1,
		Run: func(env *Env, _ []string) error {
			for _, r := range env.Session.Pipes() {
				fmt.Fprintf(env.Out, "  %-10s %-12s %s\n", r.Name, r.Handle, r.Pointer)
			}
			return nil
		},
	})

	Register(&Verb{
		Name: "stages", Usage: "stages <pipe>", Help: "list the Stage Table", Cost: 1, MinArgs: 1, MaxArgs: 1,
		Run: func(env *Env, args []string) error {
			rows, err := env.Session.Stages(args[0])
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Fprintf(env.Out, "  %-28s %-14s %s\n", r.StageName, r.Handle, r.Pointer)
			}
			return nil
		},
	})

	Register(&Verb{
		Name: "run", Usage: "run <tb> <pipe> <cycles>", Help: "run a testbench", Mutates: true, Cost: 8, MinArgs: 3, MaxArgs: 3,
		Run: func(env *Env, args []string) error {
			cycles, err := strconv.Atoi(args[2])
			if err != nil {
				return err
			}
			if err := env.Session.Run(args[0], args[1], cycles); err != nil {
				return err
			}
			p, _ := env.Session.Pipe(args[1])
			fmt.Fprintf(env.Out, "  pipe %s at cycle %d\n", args[1], p.Sim.Cycle())
			return nil
		},
	})

	Register(&Verb{
		Name: "chkp", Usage: "chkp <pipe> <path>", Help: "save a checkpoint file", Cost: 1, MinArgs: 2, MaxArgs: 2,
		Run: func(env *Env, args []string) error {
			return env.Session.SaveCheckpoint(args[0], args[1])
		},
	})

	Register(&Verb{
		Name: "ldch", Usage: "ldch <pipe> <path>", Help: "load a checkpoint file", Mutates: true, Cost: 2, MinArgs: 2, MaxArgs: 2,
		Run: func(env *Env, args []string) error {
			return env.Session.LoadCheckpoint(args[0], args[1])
		},
	})

	Register(&Verb{
		Name: "apply", Usage: "apply", Help: "re-read sources and hot reload (ERD loop)", Mutates: true, Cost: 8,
		Run: func(env *Env, _ []string) error {
			if env.ApplySource == nil {
				return fmt.Errorf("apply is not available here (no source provider)")
			}
			src, err := env.ApplySource()
			if err != nil {
				return err
			}
			rep, err := env.Session.ApplyChange(src)
			if err != nil {
				if rep != nil && rep.RolledBack {
					fmt.Fprintf(env.Out, "  change failed on pipe %s and was rolled back; still on version %s\n",
						rep.FailedPipe, env.Session.Version())
				}
				return err
			}
			if rep.NoChange {
				fmt.Fprintln(env.Out, "  no behavioural change")
				return nil
			}
			fmt.Fprintf(env.Out, "  swapped %v in %v (compile %v, swap %v, reload %v, re-exec %v)\n",
				rep.Swapped, rep.Total,
				rep.CompileStats.CompileTime, rep.SwapTime, rep.ReloadTime, rep.ReExecTime)
			rep.WaitVerification()
			for _, h := range rep.Verifications {
				if h.Err != nil {
					return h.Err
				}
				fmt.Fprintf(env.Out, "  verification: consistent=%v refined=%v\n", h.Result.Consistent(), h.Refined)
			}
			return nil
		},
	})

	Register(&Verb{
		Name: "history", Usage: "history", Help: "show the register transform history", Cost: 1,
		Run: func(env *Env, _ []string) error {
			fmt.Fprint(env.Out, env.Session.TransformOps().Describe())
			return nil
		},
	})

	Register(&Verb{
		Name: "peek", Usage: "peek <pipe> <hier.signal>", Help: "read a signal", Cost: 1, MinArgs: 2, MaxArgs: 2,
		Run: func(env *Env, args []string) error {
			p, ok := env.Session.Pipe(args[0])
			if !ok {
				return fmt.Errorf("no pipe %q", args[0])
			}
			v, err := p.Sim.Peek(args[1])
			if err != nil {
				return err
			}
			fmt.Fprintf(env.Out, "  %s = %d (%#x)\n", args[1], v, v)
			return nil
		},
	})

	Register(&Verb{
		Name: "poke", Usage: "poke <pipe> <hier.signal> <v>", Help: "write a signal", Mutates: true, Cost: 2, MinArgs: 3, MaxArgs: 3,
		Run: func(env *Env, args []string) error {
			p, ok := env.Session.Pipe(args[0])
			if !ok {
				return fmt.Errorf("no pipe %q", args[0])
			}
			v, err := strconv.ParseUint(args[2], 0, 64)
			if err != nil {
				return err
			}
			return p.Sim.Poke(args[1], v)
		},
	})

	Register(&Verb{
		Name: "trace", Usage: "trace <tb> <pipe> <cycles> <file.vcd> [scope]",
		Help: "run while dumping a VCD waveform", Mutates: true, Cost: 8, MinArgs: 4, MaxArgs: 5,
		Run: func(env *Env, args []string) error {
			cycles, err := strconv.Atoi(args[2])
			if err != nil {
				return err
			}
			p, ok := env.Session.Pipe(args[1])
			if !ok {
				return fmt.Errorf("no pipe %q", args[1])
			}
			f, err := os.Create(args[3])
			if err != nil {
				return err
			}
			defer f.Close()
			filter := trace.All()
			if len(args) >= 5 {
				filter = trace.Under(args[4])
			}
			tr, err := trace.New(f, p.Sim, filter)
			if err != nil {
				return err
			}
			defer tr.Close()
			for i := 0; i < cycles; i++ {
				if err := env.Session.Run(args[0], args[1], 1); err != nil {
					return err
				}
				if err := tr.Sample(); err != nil {
					return err
				}
			}
			fmt.Fprintf(env.Out, "  wrote %s (%d signals, %d cycles)\n", args[3], tr.NumProbes(), cycles)
			return nil
		},
	})

	Register(&Verb{
		Name: "checkpoints", Usage: "checkpoints <pipe>", Help: "list the pipe's checkpoints", Cost: 1, MinArgs: 1, MaxArgs: 1,
		Run: func(env *Env, args []string) error {
			p, ok := env.Session.Pipe(args[0])
			if !ok {
				return fmt.Errorf("no pipe %q", args[0])
			}
			for _, cp := range p.Checkpoints.All() {
				fmt.Fprintf(env.Out, "  #%-4d cycle %-10d version %-4s %8d bytes\n",
					cp.ID, cp.Cycle, cp.Version, cp.State.Bytes())
			}
			return nil
		},
	})

	Register(&Verb{
		Name: "cycle", Usage: "cycle <pipe>", Help: "show the pipe's cycle", Cost: 1, MinArgs: 1, MaxArgs: 1,
		Run: func(env *Env, args []string) error {
			p, ok := env.Session.Pipe(args[0])
			if !ok {
				return fmt.Errorf("no pipe %q", args[0])
			}
			fmt.Fprintf(env.Out, "  %d (version %s)\n", p.Sim.Cycle(), env.Session.Version())
			return nil
		},
	})

	Register(&Verb{
		Name: "health", Usage: "health", Help: "show the session's robustness summary", Cost: 1,
		Run: func(env *Env, _ []string) error {
			fmt.Fprintln(env.Out, indent(env.Session.Health().String()))
			return nil
		},
	})

	// profile is deliberately Mutates: false — it changes only
	// observability state, never simulated state, so the server neither
	// journals it nor needs a checkpoint before eviction, and a client
	// may safely resend it after a reconnect.
	Register(&Verb{
		Name: "profile", Usage: "profile <start|stop|report|reset> [pipe] [json]",
		Help: "control the activity/heat profiler", Cost: 1, MinArgs: 1, MaxArgs: 3,
		Run: func(env *Env, args []string) error {
			sub := args[0]
			rest := args[1:]
			wantJSON := false
			if n := len(rest); n > 0 && rest[n-1] == "json" {
				wantJSON = true
				rest = rest[:n-1]
			}
			pipe := ""
			if len(rest) > 0 {
				pipe = rest[0]
			}
			if wantJSON && sub != "report" {
				return fmt.Errorf("usage: profile %s [pipe]", sub)
			}
			switch sub {
			case "start":
				n, err := env.Session.ProfileStart(pipe)
				if err != nil {
					return err
				}
				fmt.Fprintf(env.Out, "  profiling %d pipe(s)\n", n)
				return nil
			case "stop":
				n, err := env.Session.ProfileStop(pipe)
				if err != nil {
					return err
				}
				fmt.Fprintf(env.Out, "  stopped %d pipe(s)\n", n)
				return nil
			case "reset":
				n, err := env.Session.ProfileReset(pipe)
				if err != nil {
					return err
				}
				fmt.Fprintf(env.Out, "  reset %d profiler(s)\n", n)
				return nil
			case "report":
				profiles, err := env.Session.ProfileSnapshot(pipe)
				if err != nil {
					return err
				}
				if wantJSON {
					data, err := json.Marshal(profiles)
					if err != nil {
						return err
					}
					fmt.Fprintf(env.Out, "%s\n", data)
					return nil
				}
				if len(profiles) == 0 {
					fmt.Fprintln(env.Out, "  no profile data (run `profile start` first)")
					return nil
				}
				for _, pp := range profiles {
					state := "stopped"
					if pp.Enabled {
						state = "recording"
					}
					fmt.Fprintf(env.Out, "pipe %s (%s):\n", pp.Pipe, state)
					var b strings.Builder
					pp.Snapshot.Render(&b)
					fmt.Fprintln(env.Out, indent(strings.TrimRight(b.String(), "\n")))
				}
				return nil
			default:
				return fmt.Errorf("usage: profile <start|stop|report|reset> [pipe] [json]")
			}
		},
	})

	Register(&Verb{
		Name: "stats", Usage: "stats [json]", Help: "dump the metrics registry", Cost: 1, MinArgs: 0, MaxArgs: 1,
		Run: func(env *Env, args []string) error {
			if env.Metrics == nil {
				return fmt.Errorf("metrics are disabled; restart with -metrics")
			}
			if len(args) == 1 {
				if args[0] != "json" {
					return fmt.Errorf("usage: stats [json]")
				}
				fmt.Fprintf(env.Out, "%s\n", env.Metrics.Snapshot().JSON())
				return nil
			}
			return env.Metrics.WriteText(env.Out)
		},
	})
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
