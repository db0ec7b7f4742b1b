GO ?= go

.PHONY: build test vet race race-robustness smoke robustness vuln check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The concurrency-critical packages under the race detector at -count=2:
# the simulation kernel's direct goroutine handoff and run-to-completion
# callbacks (sim), fabric delivery and verbs send completions, which run
# as callbacks (simnet, verbs), the client guard/hedge/cancel races, the
# bypass READ-vs-eviction-vs-crash soak in cluster, the replication
# forward/ack/scrub engine, and the history checker. A named subset of
# `race`, kept separate so a detector hit points straight at these suites
# (and so it stays cheap enough to run on every edit).
race-robustness:
	$(GO) test -race -count=2 ./internal/sim ./internal/simnet ./internal/verbs ./internal/core ./internal/cluster ./internal/replication ./internal/history

# Run every registered experiment end to end at a tiny operation count.
smoke:
	$(GO) run ./cmd/mc-bench -smoke

# The robustness gate: fault-injection, cold-restart recovery, bounded
# admission under overload, the chaos-soak invariant checker, the
# replication durability sweep, the server-bypass read-path comparison,
# the hot-key fan-out flash crowd (including its fan-out-under-kills
# history cell), and the dynamic-membership churn (joins, a
# kill-during-migration, a decommission under the zero-loss checker),
# the gray-failure cells (a fail-slow node under brown-out routing,
# background pacing, and a crash-during-brown-out failover), and the
# bit-rot matrix (at-rest SSD corruption vs read verification and scrub
# repair, with the corrupt-read oracle), all at smoke scale. Also
# covered by the full `smoke` run; kept as an explicit target so
# failures name the robustness suite directly.
robustness:
	$(GO) run ./cmd/mc-bench -smoke faults recovery overload chaos replication bypass hotkey membership grayfail bitrot

# Known-vulnerability scan, gated on the tool being present: the build
# environment is offline, so the scanner is never fetched here — when
# it is preinstalled the gate is real, otherwise it reports and passes.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping vulnerability scan"; fi

# The pre-merge gate: static analysis, the full suite under the race
# detector (plus the robustness packages at -count=2), the robustness
# gate, a registry smoke run, and the gated vulnerability scan.
check: vet race race-robustness robustness smoke vuln
