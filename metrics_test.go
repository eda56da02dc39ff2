package livesim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// literalFirstArgs scans the non-test Go outside bench/ and returns,
// sorted and deduplicated, the string-literal first arguments of every
// call to a method named in methods.
func literalFirstArgs(t *testing.T, methods ...string) []string {
	t.Helper()
	want := map[string]bool{}
	for _, m := range methods {
		want[m] = true
	}
	seen := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !want[sel.Sel.Name] {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					seen[s] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(seen))
	for s := range seen {
		names = append(names, s)
	}
	sort.Strings(names)
	return names
}

// TestMetricNamesGolden pins every metric name and event type written as
// a literal. An instrument or an event added or removed shows up here as
// a diff: a new one needs a reader (a test, a doc, a dashboard), and one
// that nothing reads is deleted. Names built at run time are pinned by
// their builders: <daemon>_event_<type> by the event types below,
// <daemon>_refused_<code> by the wire codes, livesim_health_<key> by
// server.Health's JSON keys.
func TestMetricNamesGolden(t *testing.T) {
	for _, c := range []struct {
		what    string
		methods []string
		want    string
	}{
		{"metric names", []string{"Counter", "Gauge", "Histogram"}, metricNamesGolden},
		{"event types", []string{"Event", "Blackbox"}, eventTypesGolden},
	} {
		got := literalFirstArgs(t, c.methods...)
		if want := strings.Fields(c.want); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s drifted:\n got %s\nwant %s", c.what, strings.Join(got, " "), strings.Join(want, " "))
		}
	}
}

const metricNamesGolden = `
changes_applied changes_failed changes_nochange changes_rolled_back
checkpoint_backup_loads checkpoint_capture_seconds checkpoint_gc_deleted
checkpoint_load_seconds checkpoint_loads checkpoint_save_seconds
checkpoint_saved_bytes checkpoint_saves checkpoint_takes
checkpoints_live compile_builds compile_cache_hits
compile_codegen_seconds compile_compiled compile_disk_hits
compile_elab_seconds compile_elaborated compile_files_parsed
compile_files_reused compile_parse_seconds
gateway_migration_blackout_seconds gateway_moved_follows
gateway_routes_learned objects_swapped prof_comb_evals prof_cycles
prof_eval_ns prof_instances prof_pipes_enabled prof_quiescent_evals
prof_seq_evals prof_toggles repl_acked_seq repl_applied_records
repl_batches repl_bytes repl_dial_failures repl_dials repl_fenced
repl_follower_seq repl_lag_records repl_records repl_seeds
repl_ship_errors replay_ms server_checkpoint_save_retries
server_conns_dropped_by_fault server_disk_free_bytes
server_disk_total_bytes server_drain_saves server_import_seconds
server_mem_bytes server_recover_seconds server_repl_mark_save_failures
server_results_discarded server_subscriptions session_cycles_run
session_mem_bytes session_pipes session_requests session_runs
sim_reloads sim_settle_calls sim_settle_passes sim_swapped_instances
sim_ticks testbench_panics verify_consistent verify_divergent
verify_errors verify_refined verify_runs versions_retained vm_branches
vm_branches_taken vm_mem_ops vm_ops wal_appends wal_bytes
wal_truncated_bytes wal_truncations watchdog_cancels
`

const eventTypesGolden = `
backend_drained backend_state disk_gc disk_pressure drain_requested
drain_stuck eviction failover failover_failed follower_reseed
import_failed migrate_failed migrated
panic placed quarantine_trip recovery recovery_failed
replication_arm_failed replication_armed replication_reseed_failed
replication_reseeded replication_started replication_stopped
replication_unarmed resurrection rollback session_closed
session_conflict session_created session_fenced session_imported
session_moved session_promoted slow_request stale_follower
stale_promote_fenced tombstone_failed unquarantine wal_append_failure
wal_fallback watchdog_cancel
`
