# Development and CI entry points. `make check` is the PR gate; `make bench`
# runs the micro-benchmarks that sit next to the code, and `make benchmark`
# runs the repository's end-to-end benchmark (benchmark/, BENCHMARK.json).

GO ?= go

.PHONY: check vet lint build test test-full bench benchmark benchmark-check fmt docs-check mc-smoke

check: vet lint build test bench benchmark-check

vet:
	$(GO) vet ./...

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

# The perf gate, allocation counts on: the engine scheduling microbenchmarks,
# then the protocol layer's — a packet's table lookup, the idle index under a
# moving B_e, one probe cycle on dense and on sparse links (internal/core),
# and the rational arithmetic by operand shape (internal/rate) — and the live
# transport's: the uncontended per-hop floor, a 64-session re-probe fanned out
# from one claim and a join storm over one shared runtime (internal/live),
# whose iterations are whole runs, hence the fixed count; at -cpu 1,2 because
# a cascade runs on the worker that claimed it however many CPUs are idle.
# Between them the simulated transport's hop (internal/network): disjoint
# chains with one session per link, in cache and out of it — ns/pkt is the
# hop, allocs/pkt must stay at one record per link (≈ 0.17), whole runs again.
# Last the validation oracle (internal/waterfill): one full solve on a reused
# Solver and one instance assembly, on the three instance shapes the
# repository's benchmark validates — one allocation per solve (the result),
# none per assembly.
bench:
	$(GO) test -bench=SimEngine -benchmem -run='^$$' ./internal/sim
	$(GO) test -bench='TableGet|RateSetChurn|ProbeCycle|Add|DivInt' -benchmem -run='^$$' ./internal/core ./internal/rate
	$(GO) test -bench=ChainHop -benchtime=3x -benchmem -run='^$$' ./internal/network
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

# The model-checking gate (DESIGN.md §16): bounded exhaustive DFS over the
# paper-sized topology (the ≥10k-schedule acceptance test lives in
# internal/mc), a 200-seed fuzzing swarm on the metro rung under the race
# detector, the controller explorer (every sequence of up to five operations
# on two small graphs, DESIGN.md §6; it prints its state and transition
# counts), and the regression corpus and the explorer against the build-tag
# bug doubles — each tagged build reopens one historical hole, and both the
# committed choice trace and the explorer must catch it. A violation writes
# mc-violation.trace (CI uploads it as an artifact).
mc-smoke:
	$(GO) test -run 'TestPaperExhaustive|TestRegressionCorpus' -count=1 -v ./internal/mc/
	$(GO) run -race ./cmd/mc -synth metro -sessions 6 -churn 4 -strategy swarm \
		-seeds 200 -fuzz -live-every 100 -out mc-violation.trace
	$(GO) test -run TestExploreController -count=1 -v ./internal/control/
	$(GO) test -race -tags mc_stalebug -run StaleBug -count=1 ./internal/mc/
	$(GO) test -race -tags mc_strandbug -run StrandBug -count=1 ./internal/mc/
	$(GO) test -tags mc_stalebug -run TestExploreController -count=1 -v ./internal/control/
	$(GO) test -tags mc_strandbug -run TestExploreController -count=1 -v ./internal/control/

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
