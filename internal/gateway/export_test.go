package gateway

import (
	"sort"

	"livesim/internal/wire"
)

// RendezvousScore exposes placement to the external tests, which need a
// session name that lands on a chosen backend.
var RendezvousScore = rendezvousScore

// OnMigrateStage returns cfg with fn called at each migration stage
// ("seed", "promote", "commit"; see Config.onMigrateStage).
func OnMigrateStage(cfg Config, fn func(session, stage string)) Config {
	cfg.onMigrateStage = fn
	return cfg
}

// HandlerVerbs returns the names lsgate answers itself, sorted.
func HandlerVerbs() []string {
	var names []string
	for name := range (&Gateway{}).handlerMap() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// AdminBackends returns the `backends` verb's table as JSON, the body of
// /backendz less its newline.
func (g *Gateway) AdminBackends() []byte { return g.backendsResp(&wire.Request{}).Data }
