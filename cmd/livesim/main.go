// Command livesim is an interactive shell speaking the command vocabulary
// of the paper's Table I against a live session: load a design, instantiate
// pipes, run testbenches, take and reload checkpoints, hot-reload code
// edits without restarting the simulation, and profile where the
// simulation's time goes (`profile start` / `profile report` — per-instance
// heat, activity and quiescence from internal/prof).
//
// Usage:
//
//	livesim -dir ./mydesign -top top        # load *.v from a directory
//	livesim -pgas 4                         # built-in 2x2 PGAS demo
//	livesim -connect unix:/run/ls.sock      # drive a remote livesimd
//
// Then type `help` at the prompt. The command dispatch is shared with
// livesimd's wire protocol (internal/command), so local and remote
// vocabularies are the same implementation.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"livesim"
	"livesim/internal/catalogue"
	"livesim/internal/command"
	"livesim/internal/server"
	"livesim/internal/server/client"
)

var (
	flagDir     = flag.String("dir", "", "directory of .v source files")
	flagTop     = flag.String("top", "top", "top-level module")
	flagPGAS    = flag.Int("pgas", 0, "load the built-in n-node PGAS demo instead of -dir")
	flagCkpt    = flag.Uint64("ckpt-every", 10_000, "checkpoint interval in cycles")
	flagObjs    = flag.String("objdir", "", "directory for persistent compiled objects (.lso)")
	flagMetrics = flag.Bool("metrics", false, "collect session metrics; print a summary at exit (also enables the stats command)")
	flagTrace   = flag.String("trace-out", "", "write live-loop span events to this JSONL file")
	flagConnect = flag.String("connect", "", "connect to a livesimd at this address (unix:/path or tcp:host:port) instead of hosting a session in-process")
	flagSession = flag.String("session", "s0", "session name used in -connect mode")
	flagEpoch   = flag.Uint64("epoch", 0, "stamp this replication fencing epoch on every -connect request (0 = unstamped); a backend whose session holds an older epoch fences itself")
	flagTraceID = flag.String("trace", "", "stamp this trace id on every -connect request (16 hex chars; empty = server-minted per request) — query the tree with `trace <id>` on a gateway")
)

func main() {
	os.Exit(run())
}

// run keeps every exit on one path, so the deferred -trace-out close and
// the metrics exit summary execute on error paths too (fatal errors used
// to os.Exit past them).
func run() int {
	flag.Parse()

	if *flagConnect != "" {
		return runRemote()
	}

	var reg *livesim.Registry
	if *flagMetrics {
		reg = livesim.NewRegistry()
		defer func() {
			fmt.Println("\n-- session metrics --")
			reg.WriteText(os.Stdout)
		}()
	}
	var traceOut *os.File
	if *flagTrace != "" {
		f, err := os.Create(*flagTrace)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		traceOut = f
	}

	cfg := livesim.Config{
		CheckpointEvery: *flagCkpt, Output: os.Stdout, ObjectDir: *flagObjs,
		Metrics: reg, TraceOut: traceOut,
	}
	env := &command.Env{Metrics: reg, Out: os.Stdout}
	switch {
	case *flagPGAS > 0:
		sess, err := command.BootPGAS(*flagPGAS, cfg)
		if err != nil {
			return fail(err)
		}
		env.Session = sess
		fmt.Printf("loaded built-in PGAS %d-node mesh (testbench tb0 registered)\n", *flagPGAS)
	case *flagDir != "":
		files, err := readDir(*flagDir)
		if err != nil {
			return fail(err)
		}
		sess, err := command.BootSource(*flagTop, files, cfg)
		if err != nil {
			return fail(err)
		}
		env.Session = sess
		dir := *flagDir
		env.ApplySource = func() (livesim.Source, error) {
			f, err := readDir(dir)
			if err != nil {
				return livesim.Source{}, err
			}
			return livesim.Source{Files: f}, nil
		}
		fmt.Printf("loaded %s (top %s); testbench \"clock\" registered\n", *flagDir, *flagTop)
	default:
		fmt.Fprintln(os.Stderr, "need -dir, -pgas or -connect; see -help")
		return 2
	}

	return repl(func(line string) error {
		if line == "help" {
			fmt.Print(catalogue.ShellHelp())
			return nil
		}
		return command.DispatchLine(env, line)
	})
}

// interactive is whether stdin is a terminal. Only then is there a
// prompt: a piped transcript's output holds the responses alone.
var interactive = func() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}()

func prompt() {
	if interactive {
		fmt.Print("livesim> ")
	}
}

// repl hands each non-empty stdin line to exec, printing its error, until
// EOF, exit or quit.
func repl(exec func(line string) error) int {
	in := bufio.NewScanner(os.Stdin)
	for prompt(); in.Scan(); prompt() {
		line := strings.TrimSpace(in.Text())
		if line == "exit" || line == "quit" {
			break
		}
		if line != "" {
			if err := exec(line); err != nil {
				fmt.Println("error:", err)
			}
		}
	}
	return 0
}

func readDir(dir string) (map[string]string, error) {
	files := map[string]string{}
	entries, err := filepath.Glob(filepath.Join(dir, "*.v"))
	if err != nil {
		return nil, err
	}
	sort.Strings(entries)
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		files[filepath.Base(path)] = string(data)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .v files in %s", dir)
	}
	return files, nil
}

// ---------------------------------------------------------- remote mode

// runRemote drives a livesimd over the wire: lines from stdin become
// protocol requests against -session, plus client-side conveniences
// (`create pgas N` / `create dir PATH [TOP]` ship the design, `apply
// DIR` ships an edited snapshot, `subscribe` streams span events).
func runRemote() int {
	// Auto-reconnect: survive a daemon restart or network blip without
	// losing the interactive session. Mutating requests caught by the
	// drop fail with an error the loop prints; reads are resent.
	// FollowMoves: when a fleet migrates the session to another backend
	// (code "moved" + a new address), retarget there transparently
	// instead of retrying a drained daemon forever.
	c, err := client.DialOptions(*flagConnect, client.Options{
		Reconnect:   true,
		FollowMoves: true,
		OnReconnect: func(attempts int) {
			fmt.Printf("\n(reconnected to %s after %d attempt(s))\n", *flagConnect, attempts)
			prompt()
		},
	})
	if err != nil {
		return fail(err)
	}
	defer c.Close()
	go func() {
		for ev := range c.Events() {
			fmt.Printf("event: %s\n", ev)
		}
	}()
	fmt.Printf("connected to %s (session %s)\n", *flagConnect, *flagSession)
	return repl(func(line string) error { return remoteExec(c, line) })
}

func remoteExec(c *client.Client, line string) error {
	args := strings.Fields(line)
	verb := strings.ToLower(args[0])
	rest := args[1:]
	if verb == "top" {
		return remoteTop(c, rest)
	}
	req := &server.Request{Session: *flagSession, Verb: verb, Args: rest, Epoch: *flagEpoch,
		TraceID: *flagTraceID}

	// create and apply are shaped here, from local files; the catalogue's
	// usage lines are the forms accepted.
	v, _ := catalogue.Lookup(verb)
	switch verb {
	case "create":
		switch {
		case len(rest) == 2 && rest[0] == "pgas":
			n, err := strconv.Atoi(rest[1])
			if err != nil {
				return err
			}
			req.Args, req.PGAS = nil, n
		case (len(rest) == 2 || len(rest) == 3) && rest[0] == "dir":
			files, err := readDir(rest[1])
			if err != nil {
				return err
			}
			req.Args, req.Files = nil, files
			if len(rest) == 3 {
				req.Top = rest[2]
			}
		default:
			return fmt.Errorf("usage: %s", v.Usage)
		}
		req.CheckpointEvery = *flagCkpt
	case "apply":
		// apply <dir>: read the edited sources client-side and ship them.
		if len(rest) != 1 {
			return fmt.Errorf("usage: %s <dir> (remote mode ships the edited sources)", v.Usage)
		}
		files, err := readDir(rest[0])
		if err != nil {
			return err
		}
		req.Args, req.Files = nil, files
	}

	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	if resp.Output != "" {
		fmt.Print(resp.Output)
	}
	if len(resp.Data) > 0 {
		fmt.Printf("  data: %s\n", resp.Data)
	}
	if !resp.OK {
		return fmt.Errorf("%s (%s)", resp.Error, resp.Code)
	}
	return nil
}

// remoteTop renders the server's live per-session table: `top` prints
// it once, `top N` refreshes N times a second apart — enough to watch
// req/s and p99 move under load without a full TUI.
func remoteTop(c *client.Client, rest []string) error {
	refreshes := 1
	if len(rest) == 1 {
		n, err := strconv.Atoi(rest[0])
		if err != nil || n < 1 {
			return fmt.Errorf("usage: top [refreshes]")
		}
		refreshes = n
	} else if len(rest) > 1 {
		return fmt.Errorf("usage: top [refreshes]")
	}
	for i := 0; i < refreshes; i++ {
		resp, err := c.Do(&server.Request{Verb: "top"})
		if err != nil {
			return err
		}
		if !resp.OK {
			return fmt.Errorf("%s (%s)", resp.Error, resp.Code)
		}
		fmt.Print(resp.Output)
		if i < refreshes-1 {
			time.Sleep(time.Second)
		}
	}
	return nil
}

// fail reports a fatal error and returns the exit code, leaving actual
// process exit (and deferred cleanup) to run()'s single path.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "livesim:", err)
	return 1
}
