# Tier-1 verification plus the race-enabled run this repo treats as the
# pre-merge bar. `make check` is what CI (and every PR) should run.

GO ?= go

.PHONY: check vet build test race bench loc opmix frontend state serve fleet fuzz-smoke

check: vet build race fuzz-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Tier-1 as recorded in ROADMAP.md.
test:
	$(GO) build ./... && $(GO) test ./...

# The documented pre-merge bar: tier-1 plus the race detector, which
# exercises the verification workers reading checkpoints, the WAL
# flusher and the concurrent metrics registry. It also runs the built
# livesimd, lsgate and livesim as child processes (internal/server: the
# crash matrix, TestDaemonEndToEnd and TestFleetEndToEnd).
race:
	$(GO) test -race ./...

# Every benchmark once, at its small configuration: a smoke run that
# each still builds and completes. cmd/lsbench prints the paper's tables
# and figures at chosen mesh sizes; the targets below time one layer each.
bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Code size: non-test Go lines (blank and comment-only lines excluded)
# per package, then the total outside bench/ — the one number every
# simplicity change reports.
LOC_FILES = find . -name '*.go' -not -name '*_test.go' -not -path './bench/*'
loc:
	@for d in $$($(LOC_FILES) -exec dirname {} \; | sort -u); do \
		printf '%6d  %s\n' $$(ls $$d/*.go | grep -v '_test\.go$$' | xargs cat | grep -cvE '^\s*(//.*)?$$') $$d; \
	done
	@printf '%6d  total\n' $$($(LOC_FILES) | xargs cat | grep -cvE '^\s*(//.*)?$$')

# What the VM executes per cycle on the PGAS compute kernel, 1x1 and 4x4:
# ops/cycle by opcode and the adjacent pairs where the second op reads the
# first one's result; then the kernel's own work: bind copies, comb
# evaluations (a settle run of the rest after the edge program counts as
# one) and seq evaluations per cycle, comb evaluations and edge-program
# runs per object, and the transit slots one Sync fills. The same tests
# hold ops/cycle, moves, copies, comb and seq evaluations under ceilings
# in tier-1.
opmix:
	$(GO) test -run TestOpMix -v -count=1 ./internal/pgas

# What an edit costs the front end once the compiler is warm, by mesh size:
# ms and bytes per (stage edit + revert) at 1, 16, 64 and 256 nodes. The
# counts behind it (files parsed, specializations elaborated and compiled)
# are held in tier-1 by TestRebuildCounts; the times are only reported.
frontend:
	$(GO) test -run '^$$' -bench BenchmarkRebuild -benchmem -count=1 ./internal/livecompiler

# What a checkpoint capture costs, on PGAS 4x4 and 8x8 after 1 000 cycles
# of the compute kernel: ns and bytes allocated per sim.Snapshot, the
# first capture's bytes, and the bytes each later checkpoint retains in
# the store (a capture holds state slots only; pages unchanged since the
# previous capture are shared, all-zero pages are one shared page). At
# 4x4: 64 KB allocated, 72.6 KB first, 40 KB retained per checkpoint
# (143 KB and 119 KB when a capture held every slot); at 8x8: 255 KB,
# 290 KB and 159 KB (577 KB and 477 KB). Times are only reported.
state:
	$(GO) test -run '^$$' -bench BenchmarkSnapshot -benchtime 20x -count=1 ./internal/pgas

# One closed-loop wire round trip of the serve workloads' request (`run
# tb0 p0 4` on a 1-node session) against an in-process livesimd on a unix
# socket, direct and through an in-process lsgate: ns/op and allocs/op of
# the whole process, client included. The gateway row minus the direct
# one is the hop. Then the wire codec alone on that request and its
# reply (encode and decode), beside encoding/json on the same values.
# With encoding/json on the wire (3 alternating runs a side, medians):
# 39.8 us and 67 allocations direct, 70.7 us and 122 through lsgate; with
# the codec 24.8 us and 56, 51.5 us and 97. Times are only reported.
serve:
	$(GO) test -run '^$$' -bench BenchmarkServeRoundTrip -benchtime 3s -count=1 ./internal/gateway
	$(GO) test -run '^$$' -bench BenchmarkWireCodec -benchmem -count=1 ./internal/wire

# The serving plane under load, on in-process livesimd and lsgate over
# unix sockets. Live migration between two durable backends while 4
# clients load the session: the gateway's freeze window (p50, max) and
# the slowest client request, seeding the target on every move and onto
# the standby of a replicating gateway. Failover: ms per mutation with
# replication off and on, then the time from SIGKILL of a loaded
# primary until the promoted standby answers; a lost acked mutation
# fails it. Overload at 1x, 2x and 4x admission capacity: ok/s,
# overloaded/s, p50 and p99 latency, and the blackout until a run
# succeeds after the load stops. Times are only reported.
fleet:
	$(GO) test -run '^$$' -bench BenchmarkMigrationBlackout -benchtime 20x -count=1 ./internal/gateway
	$(GO) test -run '^$$' -bench BenchmarkFailover -benchtime 150x -count=1 ./internal/gateway
	$(GO) test -run '^$$' -bench BenchmarkOverload -benchtime 20000x -count=1 ./internal/server

# Short fuzz runs over the frame container, the checkpoint, journal,
# transfer and replication decoders on it, the incremental analyzer,
# xform's Table V plan against its map-based reference, codegen's
# tidied code against its lowered code on random modules, span lines
# against encoding/json on fuzzed strings and ids, the wire codec and
# journal record encoder against encoding/json, and the session's merged
# run journal against one op per run (Go allows one
# -fuzz target per invocation). ~10s each keeps this viable in CI while still churning hundreds of thousands
# of corrupted inputs. The analyzer's inputs are whole source files at a
# millisecond per run: without a cap the fuzzer spends the whole budget
# minimizing the first one that reaches new coverage. The run journal's
# fuzzer stalls the same way for seconds at each new input, so it is
# capped too.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzFrame -fuzztime=$(FUZZTIME) ./internal/frame/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeState -fuzztime=$(FUZZTIME) ./internal/checkpoint/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFile -fuzztime=$(FUZZTIME) ./internal/checkpoint/
	$(GO) test -run='^$$' -fuzz=FuzzWALDecode -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -run='^$$' -fuzz=FuzzTransferDecode -fuzztime=$(FUZZTIME) ./internal/transfer/
	$(GO) test -run='^$$' -fuzz=FuzzReplicaFrameDecode -fuzztime=$(FUZZTIME) ./internal/replica/
	$(GO) test -run='^$$' -fuzz=FuzzAnalyzeIncremental -fuzztime=$(FUZZTIME) -fuzzminimizetime=50x ./internal/liveparser/
	$(GO) test -run='^$$' -fuzz=FuzzPlan -fuzztime=$(FUZZTIME) ./internal/xform/
	$(GO) test -run='^$$' -fuzz=FuzzCompile -fuzztime=$(FUZZTIME) ./internal/codegen/
	$(GO) test -run='^$$' -fuzz=FuzzSpanLine -fuzztime=$(FUZZTIME) ./internal/obs/
	$(GO) test -run='^$$' -fuzz=FuzzWireDecode -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzWireEncode -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzRecordEncode -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -run='^$$' -fuzz=FuzzRunJournal -fuzztime=$(FUZZTIME) -fuzzminimizetime=50x ./internal/core/
