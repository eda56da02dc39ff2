// Package command holds the bodies of the verbs the livesim shell
// shares with livesimd's session workers — the paper's Table I plus the
// inspection commands. The interactive shell in cmd/livesim and the
// session workers of internal/server both run them through Dispatch, so
// their behaviour cannot drift between frontends. What each verb is
// called, where it runs, what it costs and how replay treats it is
// internal/catalogue's; this package attaches a body to every catalogue
// entry the shell shares, and re-exports none of the catalogue: callers
// read internal/catalogue directly.
package command

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"livesim/internal/catalogue"
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

// body is the type of a shared verb's catalogue Run field.
type body = func(env *Env, args []string) error

// Dispatch validates the argument count and runs the named shared verb.
// The daemon verbs are unknown here: the shell cannot run them.
func Dispatch(env *Env, name string, args []string) error {
	v, ok := catalogue.Lookup(name)
	if !ok || !v.Shared() {
		return fmt.Errorf("unknown command %q (try help)", name)
	}
	if len(args) < v.MinArgs || (v.MaxArgs >= 0 && len(args) > v.MaxArgs) {
		return fmt.Errorf("usage: %s", v.Usage)
	}
	return v.Run.(body)(env, args)
}

// DispatchLine splits a shell line into verb and arguments and runs it.
func DispatchLine(env *Env, line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	return Dispatch(env, fields[0], fields[1:])
}

// init attaches each body to its catalogue entry; an entry the shell
// shares without a body here, or a body without an entry, panics.
func init() {
	for _, v := range catalogue.Verbs((*catalogue.Verb).Shared) {
		if v.Run = bodies[v.Name]; bodies[v.Name] == nil {
			panic(fmt.Sprintf("command: no body for shared verb %q", v.Name))
		}
	}
	if n := len(catalogue.Verbs((*catalogue.Verb).Shared)); n != len(bodies) {
		panic(fmt.Sprintf("command: %d bodies for %d shared verbs", len(bodies), n))
	}
}

var bodies = map[string]body{
	"ldlib": func(env *Env, _ []string) error {
		for _, e := range env.Session.Library() {
			fmt.Fprintf(env.Out, "  %-10s %-10s %-30s %s\n", e.Handle, e.Type, e.CodePath, e.ObjectPath)
		}
		return nil
	},
	"instpipe": func(env *Env, args []string) error {
		_, err := env.Session.InstPipe(args[0])
		return err
	},
	"copypipe": func(env *Env, args []string) error {
		_, err := env.Session.CopyPipe(args[0], args[1])
		return err
	},
	"pipes": func(env *Env, _ []string) error {
		for _, r := range env.Session.Pipes() {
			fmt.Fprintf(env.Out, "  %-10s %-12s %s\n", r.Name, r.Handle, r.Pointer)
		}
		return nil
	},
	"stages": func(env *Env, args []string) error {
		rows, err := env.Session.Stages(args[0])
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintf(env.Out, "  %-28s %-14s %s\n", r.StageName, r.Handle, r.Pointer)
		}
		return nil
	},
	"run": func(env *Env, args []string) error {
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
	"chkp": func(env *Env, args []string) error {
		return env.Session.SaveCheckpoint(args[0], args[1])
	},
	"ldch": func(env *Env, args []string) error {
		return env.Session.LoadCheckpoint(args[0], args[1])
	},
	"apply": func(env *Env, _ []string) error {
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
	"history": func(env *Env, _ []string) error {
		fmt.Fprint(env.Out, env.Session.TransformOps().Describe())
		return nil
	},
	"peek": func(env *Env, args []string) error {
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
	"poke": func(env *Env, args []string) error {
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
	"trace": func(env *Env, args []string) error {
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
	"checkpoints": func(env *Env, args []string) error {
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
	"cycle": func(env *Env, args []string) error {
		p, ok := env.Session.Pipe(args[0])
		if !ok {
			return fmt.Errorf("no pipe %q", args[0])
		}
		fmt.Fprintf(env.Out, "  %d (version %s)\n", p.Sim.Cycle(), env.Session.Version())
		return nil
	},
	"health": func(env *Env, _ []string) error {
		fmt.Fprintln(env.Out, indent(env.Session.Health().String()))
		return nil
	},
	"profile": func(env *Env, args []string) error {
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
	"stats": func(env *Env, args []string) error {
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
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
