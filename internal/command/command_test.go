package command

import (
	"path/filepath"
	"strings"
	"testing"

	"livesim/internal/catalogue"
	"livesim/internal/core"
	"livesim/internal/liveparser"
)

const tinyDesign = `
module accum (input clk, input en, input [15:0] d, output reg [31:0] total);
  always @(posedge clk) begin
    if (en) total <= total + d;
  end
endmodule

module top (input clk, input en, input [15:0] d, output [31:0] total);
  accum u0 (.clk(clk), .en(en), .d(d), .total(total));
endmodule
`

func bootTiny(t *testing.T) *core.Session {
	t.Helper()
	s, err := BootSource("top", map[string]string{"top.v": tinyDesign}, core.Config{CheckpointEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDispatchDrivesASession(t *testing.T) {
	var out strings.Builder
	env := &Env{Session: bootTiny(t), Out: &out}
	steps := []string{
		"instpipe p0",
		"pipes",
		"run clock p0 50",
		"cycle p0",
		"peek p0 top.u0.total",
		"checkpoints p0",
		"health",
	}
	for _, line := range steps {
		if err := DispatchLine(env, line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
	}
	text := out.String()
	if !strings.Contains(text, "pipe p0 at cycle 50") {
		t.Errorf("run output missing cycle: %q", text)
	}
	if !strings.Contains(text, "50 (version v0)") {
		t.Errorf("cycle output missing: %q", text)
	}
	if !strings.Contains(text, "status: ok") {
		t.Errorf("health output missing: %q", text)
	}
}

func TestDispatchValidation(t *testing.T) {
	env := &Env{Session: bootTiny(t), Out: &strings.Builder{}}
	if err := DispatchLine(env, "warp 9"); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Errorf("unknown verb: %v", err)
	}
	if err := DispatchLine(env, "run clock"); err == nil || !strings.Contains(err.Error(), "usage: run") {
		t.Errorf("arity check: %v", err)
	}
	if err := DispatchLine(env, "stats"); err == nil || !strings.Contains(err.Error(), "metrics are disabled") {
		t.Errorf("nil metrics: %v", err)
	}
	if err := DispatchLine(env, "apply"); err == nil || !strings.Contains(err.Error(), "not available") {
		t.Errorf("nil ApplySource: %v", err)
	}
	if err := DispatchLine(env, ""); err != nil {
		t.Errorf("blank line: %v", err)
	}
}

func TestApplyThroughSharedCommand(t *testing.T) {
	var out strings.Builder
	edited := strings.Replace(tinyDesign, "total + d", "total + d + 1", 1)
	env := &Env{
		Session: bootTiny(t),
		Out:     &out,
		ApplySource: func() (liveparser.Source, error) {
			return liveparser.Source{Files: map[string]string{"top.v": edited}}, nil
		},
	}
	for _, line := range []string{"instpipe p0", "run clock p0 120", "apply"} {
		if err := DispatchLine(env, line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
	}
	if !strings.Contains(out.String(), "swapped") {
		t.Errorf("apply output: %q", out.String())
	}
	if v := env.Session.Version(); v != "v1" {
		t.Errorf("version after apply = %s", v)
	}
}

// TestLoadCheckpointFromEarlierVersion: a file saved before an apply
// loads after it, its state carried to the running version by the
// edit's plans, and a pipe copied afterwards runs the session's objects.
func TestLoadCheckpointFromEarlierVersion(t *testing.T) {
	var out strings.Builder
	edited := strings.Replace(tinyDesign, "total + d", "total + d + 1", 1)
	env := &Env{
		Session: bootTiny(t),
		Out:     &out,
		ApplySource: func() (liveparser.Source, error) {
			return liveparser.Source{Files: map[string]string{"top.v": edited}}, nil
		},
	}
	do := func(lines ...string) {
		t.Helper()
		for _, line := range lines {
			if err := DispatchLine(env, line); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
		}
	}
	total := func(pipe string) uint64 {
		t.Helper()
		p, _ := env.Session.Pipe(pipe)
		v, err := p.Sim.Peek("top.u0.total")
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	path := filepath.Join(t.TempDir(), "f")
	do("instpipe p0", "poke p0 top.en 1", "poke p0 top.d 3", "run clock p0 100", "chkp p0 "+path)
	saved := total("p0")
	do("run clock p0 50", "apply", "ldch p0 "+path)
	p0, _ := env.Session.Pipe("p0")
	if c := p0.Sim.Cycle(); c != 100 {
		t.Errorf("ldch: pipe at cycle %d, want 100", c)
	}
	if got := total("p0"); got != saved {
		t.Errorf("ldch: total %d, saved %d", got, saved)
	}
	// The edit adds d+1 a cycle; the copy must add it too.
	do("copypipe p1 p0", "run clock p0 10", "run clock p1 10")
	if got, want := total("p1"), saved+10*4; got != want || total("p0") != want {
		t.Errorf("10 cycles after ldch: total p0 %d, p1 %d, want %d", total("p0"), got, want)
	}
}

// listed counts the help lines that document each verb: lines whose
// first word is its name.
func listed(help string) map[string]int {
	n := map[string]int{}
	for _, line := range strings.Split(help, "\n") {
		if strings.HasPrefix(line, "  ") {
			n[strings.Fields(line)[0]]++
		}
	}
	return n
}

// Every help screen is generated from the catalogue: each daemon lists
// every verb it answers exactly once (lsgate counts what it forwards),
// and the shell lists the shared verbs and its own help and exit.
func TestHelpTextCoversEveryVerb(t *testing.T) {
	all := catalogue.Verbs(func(*catalogue.Verb) bool { return true })
	server, gateway, shell := listed(catalogue.ServerHelp()), listed(catalogue.GatewayHelp()), listed(catalogue.ShellHelp())
	for _, v := range all {
		if v.Livesimd() && server[v.Name] != 1 {
			t.Errorf("livesimd help lists %q %d times, want once", v.Name, server[v.Name])
		}
		if gateway[v.Name] != 1 {
			t.Errorf("lsgate help lists %q %d times, want once", v.Name, gateway[v.Name])
		}
		if want := shared(v.Name) || v.Name == "help"; (shell[v.Name] == 1) != want {
			t.Errorf("shell help lists %q %d times, want shared verbs once and nothing else", v.Name, shell[v.Name])
		}
	}
	for _, help := range []map[string]int{server, gateway} {
		if len(help) == 0 || len(help) > len(all) {
			t.Errorf("help lists %d names for a catalogue of %d entries", len(help), len(all))
		}
	}
	if len(shell) != len(catalogue.Verbs((*catalogue.Verb).Shared))+2 {
		t.Errorf("shell help lists %v, want the shared verbs plus help and exit", shell)
	}
}

// shared reports whether livesimd's verb of that name is a shared one
// (lsgate's `trace` shares the session verb's name).
func shared(name string) bool {
	v, ok := catalogue.Lookup(name)
	return ok && v.Shared()
}

// The shell runs shared verbs only: a daemon verb is as unknown to it as
// a misspelt one.
func TestDispatchRefusesDaemonVerbs(t *testing.T) {
	env := &Env{Session: bootTiny(t), Out: &strings.Builder{}}
	for _, v := range catalogue.Verbs(func(v *catalogue.Verb) bool { return !shared(v.Name) }) {
		if err := Dispatch(env, v.Name, nil); err == nil || !strings.Contains(err.Error(), "unknown command") {
			t.Errorf("shell ran daemon verb %q: %v", v.Name, err)
		}
	}
}

func TestProfileVerb(t *testing.T) {
	var out strings.Builder
	env := &Env{Session: bootTiny(t), Out: &out}
	for _, line := range []string{
		"instpipe p0",
		"profile start",
		"run clock p0 80",
		"profile report",
	} {
		if err := DispatchLine(env, line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
	}
	text := out.String()
	if !strings.Contains(text, "pipe p0 (recording):") {
		t.Errorf("report missing pipe header: %q", text)
	}
	if !strings.Contains(text, "u0") || !strings.Contains(text, "quiescence:") {
		t.Errorf("report missing heat tree content: %q", text)
	}

	// JSON form round-trips through the same snapshot.
	out.Reset()
	if err := DispatchLine(env, "profile report p0 json"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"pipe":"p0"`) {
		t.Errorf("json report: %q", out.String())
	}

	// stop / reset are acknowledged; report with no data explains itself.
	out.Reset()
	for _, line := range []string{"profile stop", "profile reset"} {
		if err := DispatchLine(env, line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
	}
	if err := DispatchLine(env, "profile bogus"); err == nil || !strings.Contains(err.Error(), "usage: profile") {
		t.Errorf("bad subverb: %v", err)
	}
	if err := DispatchLine(env, "profile start json"); err == nil {
		t.Error("json on non-report subverb should fail")
	}
	// The verb must stay non-mutating: journaled replay and client
	// resend correctness both depend on it.
	if v, _ := catalogue.Lookup("profile"); v.Mutates {
		t.Error("profile verb marked Mutates")
	}
}
