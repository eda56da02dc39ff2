# Tier-1 verification plus the race-enabled run this repo treats as the
# pre-merge bar. `make check` is what CI (and every PR) should run.

GO ?= go

.PHONY: check vet build test race bench opmix frontend state fuzz-smoke serve-smoke crash-recovery-smoke admin-smoke profile-smoke overload-smoke fleet-smoke failover-smoke trace-smoke

check: vet build race fuzz-smoke serve-smoke crash-recovery-smoke admin-smoke profile-smoke overload-smoke fleet-smoke failover-smoke trace-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Tier-1 as recorded in ROADMAP.md.
test:
	$(GO) build ./... && $(GO) test ./...

# The documented pre-merge bar: tier-1 plus the race detector, which
# exercises the verification workers reading checkpoints, the WAL
# flusher and the concurrent metrics registry.
race:
	$(GO) test -race ./...

# Small-configuration benchmarks (cmd/lsbench runs the full sweeps).
bench:
	$(GO) test -bench=. -benchtime=1x ./...

# What the VM executes per cycle on the PGAS compute kernel, 1x1 and 4x4:
# ops/cycle by opcode and the adjacent pairs where the second op reads the
# first one's result. The same test holds ops/cycle under a ceiling in tier-1.
opmix:
	$(GO) test -run TestOpMix -v -count=1 ./internal/pgas

# What an edit costs the front end once the compiler is warm, by mesh size:
# ms and bytes per (stage edit + revert) at 1, 16, 64 and 256 nodes. The
# counts behind it (files parsed, specializations elaborated and compiled)
# are held in tier-1 by TestRebuildCounts; the times are only reported.
frontend:
	$(GO) test -run '^$$' -bench BenchmarkRebuild -benchmem -count=1 ./internal/livecompiler

# What a checkpoint capture costs, on PGAS 4x4 and 8x8 after 1 000 cycles
# of the compute kernel: ns and bytes allocated per sim.Snapshot, and the
# bytes each added checkpoint retains in the store (pages unchanged since
# the previous capture are shared, not copied). Times are only reported.
state:
	$(GO) test -run '^$$' -bench BenchmarkSnapshot -benchtime 20x -count=1 ./internal/pgas

# Short fuzz runs over the frame container, the checkpoint, journal,
# transfer and replication decoders on it, and the incremental analyzer
# (Go allows one -fuzz target per invocation). ~10s each keeps this viable in CI while still churning hundreds of thousands
# of corrupted inputs. The analyzer's inputs are whole source files at a
# millisecond per run: without a cap the fuzzer spends the whole budget
# minimizing the first one that reaches new coverage.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzFrame -fuzztime=$(FUZZTIME) ./internal/frame/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeState -fuzztime=$(FUZZTIME) ./internal/checkpoint/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFile -fuzztime=$(FUZZTIME) ./internal/checkpoint/
	$(GO) test -run='^$$' -fuzz=FuzzWALDecode -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -run='^$$' -fuzz=FuzzTransferDecode -fuzztime=$(FUZZTIME) ./internal/transfer/
	$(GO) test -run='^$$' -fuzz=FuzzReplicaFrameDecode -fuzztime=$(FUZZTIME) ./internal/replica/
	$(GO) test -run='^$$' -fuzz=FuzzAnalyzeIncremental -fuzztime=$(FUZZTIME) -fuzzminimizetime=50x ./internal/liveparser/

# End-to-end server smoke: scripted livesim session against a livesimd
# on a unix socket, then a SIGTERM graceful-drain assertion.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

# End-to-end durability smoke: SIGKILL a livesimd mid-session, restart
# it on the same state dir, assert journal replay restores the session.
crash-recovery-smoke:
	GO="$(GO)" sh scripts/crash_recovery_smoke.sh

# Observability-plane smoke: livesimd with -admin-addr, assert /healthz,
# /metrics (server + per-session families) and /eventsz answer sanely.
admin-smoke:
	GO="$(GO)" sh scripts/admin_smoke.sh

# Simulation-core profiler smoke: profile a session over the wire,
# assert `profile report` and /profilez agree on what they profiled.
profile-smoke:
	GO="$(GO)" sh scripts/profile_smoke.sh

# Resource-governance smoke: lsbench -overload (typed rejections +
# recovery at 4x admission capacity), then a real livesimd under a
# forced critical disk rung (NONDURABLE session, degraded /healthz,
# clean SIGTERM drain).
overload-smoke:
	GO="$(GO)" sh scripts/overload_smoke.sh

# Fleet smoke: two livesimd behind an lsgate over unix sockets — place a
# session through the gateway, live-migrate it, SIGKILL the migration
# source, assert the session keeps answering with nothing lost.
fleet-smoke:
	GO="$(GO)" sh scripts/fleet_smoke.sh

# Failover smoke: two livesimd behind a replicating lsgate — SIGKILL the
# session's primary, assert the hot standby is promoted with zero acked
# mutations lost and that the resurrected corpse is fenced.
failover-smoke:
	GO="$(GO)" sh scripts/failover_smoke.sh

# Tracing smoke: replicated mutation through the fleet, assert
# `trace <id>` assembles one tree spanning gateway, primary and standby;
# SIGKILL a backend, assert it left a parseable blackbox-*.jsonl and the
# assembly degrades to a marked-incomplete partial tree.
trace-smoke:
	GO="$(GO)" sh scripts/trace_smoke.sh
