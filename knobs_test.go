package livesim_test

import (
	"reflect"
	"strings"
	"testing"

	"livesim/internal/core"
	"livesim/internal/gateway"
	"livesim/internal/obs"
	"livesim/internal/server"
	"livesim/internal/server/client"
)

// TestConfigFieldsGolden lists the exported fields of every options
// struct a daemon or library caller sets. A knob added or removed shows
// up here as a diff: a tuning value that only ever takes one value is a
// constant, not a field.
func TestConfigFieldsGolden(t *testing.T) {
	for _, c := range []struct {
		typ  any
		want string
	}{
		{server.Config{}, "QueueDepth IdleTimeout CheckpointEvery DrainDir StateDir RunBudget " +
			"WALSyncEvery JournalCheckpointEvery Faults Metrics TraceOut Log SlowRequest " +
			"TelemetryConfig AdmitBudget DiskPollEvery MemBudget"},
		{gateway.Config{}, "Backends HealthEvery Replicate FailoverGrace Metrics Log TraceOut " +
			"TelemetryConfig Faults"},
		{gateway.BackendSpec{}, "Addr"},
		{obs.TelemetryConfig{}, "ProcName SpanStoreCap FlightRecorderCap BlackboxDir BlackboxFlushEvery"},
		{core.Config{}, "Style CheckpointEvery Lookback ObjectDir Output Metrics TraceOut " +
			"Faults RunBudget"},
		{client.Options{}, "Reconnect OnReconnect OverloadRetries FollowMoves"},
	} {
		typ := reflect.TypeOf(c.typ)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if s := strings.Join(got, " "); s != c.want {
			t.Errorf("%v fields drifted:\n got %s\nwant %s", typ, s, c.want)
		}
	}
}
