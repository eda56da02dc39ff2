package gateway

import "sort"

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
