# Development and CI entry points. `make check` is the PR gate; `make bench`
# runs the micro-benchmarks that sit next to the code, and `make benchmark`
# runs the repository's end-to-end benchmark (benchmark/, BENCHMARK.json).

GO ?= go

.PHONY: check vet lint build test test-full bench benchmark benchmark-check fmt docs-check mc-smoke

check: vet lint build test bench benchmark-check

# The prefetch kernel of internal/network has an assembly body per
# architecture: vet checks the arm64 one against its declaration (asmdecl),
# and a riscv64 build compiles the no-op the other architectures get.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/network/
	GOARCH=riscv64 $(GO) build ./...

# The invariant gate: bnecklint (the repo's own analyzer suite — see
# DESIGN.md §12) always runs; staticcheck and govulncheck join in when
# installed (CI installs them; local runs without them just skip).
lint:
	$(GO) run ./cmd/bnecklint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed; skipping"; fi

build:
	$(GO) build ./...

test:
	$(GO) test -short ./...

test-full:
	$(GO) test ./...

# The perf gate, allocation counts on: the engine scheduling microbenchmarks
# and the event queue alone at the workloads' depths, then the protocol layer's — a packet's table lookup, the idle index under a
# moving B_e, one probe cycle on dense and on sparse links (internal/core),
# and the rational arithmetic by operand shape (internal/rate) — and the live
# transport's: the uncontended per-hop floor, a 64-session re-probe fanned out
# from one claim and a join storm over one shared runtime (internal/live),
# whose iterations are whole runs, hence the fixed count; at -cpu 1,2 because
# a cascade runs on the worker that claimed it however many CPUs are idle.
# Between them set-up (internal/graph): building the chains_bare graph and
# the 10k-router internet one with its hosts, each with its first path query
# — allocations once per page of the graph's stores, not per node or link —
# and the simulated transport's hop (internal/network): disjoint
# chains with one session per link, in cache and out of it — ns/pkt is the
# hop, allocs/pkt must stay at one record per link (≈ 0.17), B/linkrec is that
# record's size (192 bytes: three cache lines, the 192-byte class), whole
# runs again —
# and one quiescent-state check (Validate) of the out-of-cache shape, in ms/op
# and ns per link task.
# Last the validation oracle (internal/waterfill): one full solve on a reused
# Solver and one instance assembly, on the three instance shapes the
# repository's benchmark validates — one allocation per solve (the result),
# none per assembly.
bench:
	$(GO) test -bench='SimEngine|EventQueue' -benchmem -run='^$$' ./internal/sim
	$(GO) test -bench='TableGet|RateSetChurn|ProbeCycle|Add|DivInt' -benchmem -run='^$$' ./internal/core ./internal/rate
	$(GO) test -bench='GraphBuild' -benchmem -run='^$$' ./internal/graph
	$(GO) test -bench='ChainHop|Validate' -benchtime=3x -benchmem -run='^$$' ./internal/network
	$(GO) test -bench='LiveHop|LiveFanout|LiveEmit' -benchtime=3x -cpu 1,2 -benchmem -run='^$$' ./internal/live
	$(GO) test -bench='Solve|Assemble' -benchmem -run='^$$' ./internal/waterfill

# The repository's benchmark (benchmark/README.md, BENCHMARK.json): one full
# set, four workloads × five repetitions, about a minute. It is a module of
# its own, so the root's vet/build/test never see it; benchmark-check is
# their counterpart for it — vet, its contract/plan/pump/smoke tests, and one
# tiny-scale set end to end.
benchmark:
	$(GO) run -C benchmark .

benchmark-check:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...
	$(GO) run -C benchmark . -scale tiny

# The model-checking gate (DESIGN.md §13): the regression corpus, a
# 2000-seed swarm over the paper fixture (4 sessions, 3 epochs, its expects,
# a live run every 500 seeds), a 200-seed fuzzing swarm on the metro rung
# under the race detector, and the two explorers — the controller explorer
# (every sequence of up to five operations on two small graphs, DESIGN.md
# §6) and the protocol explorer (B-Neck's tasks on FIFO channels under every
# delivery schedule) — which print their state and transition counts. Each
# build-tag bug double reopens one historical hole: the committed delay
# trace must reproduce it, and the swarm and both explorers must find it. A
# swarm violation writes the delay trace mc-violation.trace (CI uploads it
# as an artifact). The swarms' summary lines count the delayed crossings
# and the distinct packet totals they reached.
mc-smoke:
	$(GO) test -run TestRegressionCorpus -count=1 -v ./internal/mc/
	$(GO) run ./cmd/mc -scenario internal/mc/testdata/paper.bneck -seeds 2000 -live-every 500
	$(GO) run -race ./cmd/mc -synth metro -sessions 6 -churn 4 \
		-seeds 200 -fuzz -live-every 100 -out mc-violation.trace
	$(GO) test -run 'TestExplore(Controller|Protocol)' -count=1 -v ./internal/control/
	$(GO) test -race -tags mc_stalebug -run StaleBug -count=1 ./internal/mc/
	$(GO) test -race -tags mc_strandbug -run StrandBug -count=1 ./internal/mc/
	$(GO) test -tags mc_stalebug -run 'TestExplore(Controller|Protocol)' -count=1 -v ./internal/control/
	$(GO) test -tags mc_strandbug -run 'TestExplore(Controller|Protocol)' -count=1 -v ./internal/control/

fmt:
	gofmt -w .

# The documentation gate: formatting, vet, a godoc smoke pass over the
# public API and the scenario/control packages, and a dead-link check over
# README.md, DESIGN.md and docs/ (cmd/doccheck). CI runs it on every push.
docs-check:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	@$(GO) doc . > /dev/null
	@$(GO) doc ./internal/scenario > /dev/null
	@$(GO) doc ./internal/control > /dev/null
	@$(GO) doc bneck.Simulation > /dev/null
	$(GO) run ./cmd/doccheck
