package catalogue_test

import (
	"testing"

	"livesim/internal/catalogue"
	"livesim/internal/server/client"
)

// golden pins what the catalogue decides for every wire verb: where
// livesimd runs it ("" when livesimd does not know it), whether lsgate
// answers it itself rather than forwarding, its admission cost on
// livesimd and whether a client resends it after a reconnect. The values
// are those of the hand-kept lists the catalogue replaced; a change here
// is a protocol change.
var golden = []struct {
	name     string
	livesimd string
	lsgate   bool
	cost     int64
	resend   bool
}{
	{"ldlib", "worker", false, 1, true},
	{"instpipe", "worker", false, 4, false},
	{"copypipe", "worker", false, 4, false},
	{"pipes", "worker", false, 1, true},
	{"stages", "worker", false, 1, true},
	{"run", "worker", false, 8, false},
	{"chkp", "worker", false, 1, true},
	{"ldch", "worker", false, 2, false},
	{"apply", "worker", false, 8, false},
	{"history", "worker", false, 1, true},
	{"peek", "worker", false, 1, true},
	{"poke", "worker", false, 2, false},
	{"trace", "worker", true, 8, false},
	{"checkpoints", "worker", false, 1, true},
	{"cycle", "worker", false, 1, true},
	{"health", "worker", false, 1, true},
	{"profile", "worker", false, 1, true},
	{"stats", "worker", false, 1, true},

	{"create", "conn", true, 8, false},
	{"close", "conn", false, 0, false},
	{"replicate", "worker", false, 8, false},
	{"import", "conn", false, 8, false},
	{"replapply", "worker", false, 0, false},
	{"promote", "worker", false, 0, false},
	{"drain", "conn", true, 0, false},
	{"sessions", "conn", true, 0, true},
	{"subscribe", "conn", true, 0, false},
	{"unquarantine", "conn", false, 0, false},
	{"metricz", "conn", true, 0, true},
	{"events", "conn", true, 0, true},
	{"spans", "conn", false, 0, true},
	{"top", "conn", false, 0, true},
	{"ping", "conn", true, 0, true},
	{"help", "conn", true, 0, true},

	{"backends", "", true, 1, true},
	{"migrate", "", true, 1, false},

	{"frobnicate", "", false, 1, false}, // unknown: queued, then refused
}

func TestCatalogueGolden(t *testing.T) {
	places := map[catalogue.Place]string{catalogue.Worker: "worker", catalogue.Conn: "conn"}
	lsgate := map[string]bool{}
	for _, v := range catalogue.Verbs(func(v *catalogue.Verb) bool { return v.Place == catalogue.Gateway }) {
		lsgate[v.Name] = true
	}
	pinned := map[string]bool{}
	for _, g := range golden {
		pinned[g.name] = true
		place := ""
		if v, ok := catalogue.Lookup(g.name); ok {
			place = places[v.Place]
		}
		if place != g.livesimd {
			t.Errorf("%s runs on livesimd's %q, want %q", g.name, place, g.livesimd)
		}
		if lsgate[g.name] != g.lsgate {
			t.Errorf("%s answered by lsgate itself = %v, want %v", g.name, lsgate[g.name], g.lsgate)
		}
		if c := catalogue.CostOf(g.name); c != g.cost {
			t.Errorf("%s costs %d, want %d", g.name, c, g.cost)
		}
		if r := client.Idempotent(g.name); r != g.resend {
			t.Errorf("%s resendable = %v, want %v", g.name, r, g.resend)
		}
	}
	for _, v := range catalogue.Verbs(func(*catalogue.Verb) bool { return true }) {
		if !pinned[v.Name] {
			t.Errorf("catalogue verb %q has no golden row", v.Name)
		}
	}
}
