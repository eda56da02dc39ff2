package server_test

import (
	"testing"

	"livesim/internal/catalogue"
	"livesim/internal/server"
	"livesim/internal/server/client"
)

// Every verb the server answers must have its resend class decided on
// purpose — a catalogue entry whose Mutates flag client.Idempotent
// reads — not fall through to "not resendable": `spans` was once
// forgotten that way, so a spans call in flight across a reconnect
// failed instead of being resent.
func TestEveryServerVerbIsClassified(t *testing.T) {
	answered := map[string]bool{}
	for _, name := range server.HandlerVerbs() {
		answered[name] = true
		v, ok := catalogue.Lookup(name)
		if !ok {
			t.Errorf("server verb %q has no catalogue entry", name)
			continue
		}
		if client.Idempotent(name) == v.Mutates {
			t.Errorf("server verb %q: resendable = %v, but Mutates = %v", name, client.Idempotent(name), v.Mutates)
		}
	}
	for _, v := range []string{"ping", "sessions", "spans", "backends"} {
		if !client.Idempotent(v) {
			t.Errorf("read-only verb %q must be resendable", v)
		}
	}
	for _, v := range []string{"create", "close", "import", "drain", "replicate", "replapply", "promote"} {
		if client.Idempotent(v) {
			t.Errorf("verb %q must not be resendable", v)
		}
	}
	// And the other way: every catalogue verb livesimd runs is answered,
	// so a verb dropped from the handlers leaves no stale entry.
	for _, v := range catalogue.Verbs((*catalogue.Verb).Livesimd) {
		if !answered[v.Name] {
			t.Errorf("catalogue verb %q runs on livesimd, which does not answer it", v.Name)
		}
	}
}
