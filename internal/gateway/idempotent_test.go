package gateway_test

import (
	"testing"

	"livesim/internal/catalogue"
	"livesim/internal/gateway"
	"livesim/internal/server/client"
)

// Every verb the gateway answers itself must have its resend class
// decided on purpose by a catalogue Gateway entry: `backends` was once
// forgotten, so it failed across a reconnect instead of being resent.
func TestEveryGatewayVerbIsClassified(t *testing.T) {
	declared := map[string]*catalogue.Verb{}
	for _, v := range catalogue.Verbs(func(v *catalogue.Verb) bool { return v.Place == catalogue.Gateway }) {
		declared[v.Name] = v
	}
	handled := gateway.HandlerVerbs()
	for _, name := range handled {
		v, ok := declared[name]
		if !ok {
			t.Errorf("gateway verb %q has no catalogue Gateway entry", name)
			continue
		}
		if client.Idempotent(name) == v.Mutates {
			t.Errorf("gateway verb %q: resendable = %v, but Mutates = %v", name, client.Idempotent(name), v.Mutates)
		}
	}
	if len(handled) != len(declared) {
		t.Errorf("gateway answers %d verbs itself, catalogue declares %d", len(handled), len(declared))
	}
	if !client.Idempotent("backends") || client.Idempotent("migrate") {
		t.Error("backends must be resendable, migrate must not")
	}
}
