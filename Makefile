# Developer entry points; CI runs `make ci`.

GO      ?= go
PKGS    := ./...
# End-to-end experiment benchmarks live in the repo root; `make
# microbench` runs the per-package ones (eventsim, simnet, fairness,
# wire, gossip, proto).
BENCH   ?= .
OUT     ?= results

.PHONY: all build test race bench microbench vet fmt-check fairvet staticcheck lint lint-fast ci fairbench clean

# fairvet memoizes its `go list -export` module-graph walk when
# FAIRVET_CACHE names a directory (internal/analysis/cache.go); the
# lint targets opt in so repeat runs skip the multi-second walk. The
# cache self-invalidates on any source, module-file, or toolchain
# change. Point it elsewhere (or at "") to opt out.
FAIRVET_CACHE ?= $(CURDIR)/.fairvet-cache

# staticcheck is version-pinned: a drifting linter turns every upgrade
# into a triage session. Bump deliberately, re-triage, update
# staticcheck.conf (see LINTING.md).
STATICCHECK_VERSION := 2025.1.1

all: build

build:
	$(GO) build $(PKGS)

# -shuffle=on randomises test (and subtest-sibling) execution order on
# every run, so order-dependent tests cannot hide behind file order.
test:
	$(GO) test -shuffle=on $(PKGS)

# The scenario package's race run includes the full builtin table over
# real loopback UDP sockets (TestBuiltinsOnLiveUDP) — the transport /
# codec concurrency is exercised under the detector on every CI run.
# core rides along since the sharded kernel runs one goroutine per
# shard between round barriers (ledger chunks, mailboxes, the envelope
# pool freelist are all crossed by those goroutines).
race:
	$(GO) test -race -shuffle=on ./internal/core/ ./internal/fairness/ ./internal/gossip/ ./internal/live/ ./internal/eventsim/ ./internal/simnet/ ./internal/scenario/ ./internal/transport/ ./internal/wire/ ./internal/membership/ ./internal/proto/

# bench runs the Go benchmarks, then regenerates the dated
# BENCH_<date>.json run record via fairbench — every bench invocation
# leaves a fresh machine-readable baseline (CI uploads it as an
# artifact). -huge appends the EXP-HUGE tier: N=100k nodes on the
# sharded kernel, swept over shard counts, so the record carries
# rounds/sec scaling alongside the protocol experiments.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime 3x .
	$(GO) run ./cmd/fairbench -small -huge -out $(OUT)

microbench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/eventsim/ ./internal/simnet/ ./internal/fairness/ ./internal/wire/ ./internal/gossip/ ./internal/proto/

vet:
	$(GO) vet $(PKGS)

fmt-check:
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

# fairvet is the project's own vet: the analyzers in internal/analysis
# machine-enforce the repo invariants (fixed-seed determinism, drop
# conservation, buffer ownership, copy-on-write, hot-path allocation
# discipline). Zero unsuppressed findings, every escape hatch verified.
fairvet:
	FAIRVET_CACHE=$(FAIRVET_CACHE) $(GO) run ./cmd/fairvet $(PKGS)

# lint-fast is the inner-loop complement to `make lint`: fairvet only,
# and only over the packages whose Go files changed (committed or not)
# since the merge base with origin/main. Falls back to the whole tree
# when that ref is unavailable (fresh clones, detached CI checkouts).
lint-fast:
	@if base=$$(git merge-base origin/main HEAD 2>/dev/null); then \
		dirs=$$(git diff --name-only $$base -- '*.go' | grep -v '/testdata/' | xargs -r -n1 dirname | sort -u); \
		pkgs=$$(for d in $$dirs; do [ -d "$$d" ] && printf './%s ' "$$d"; done); \
		if [ -z "$$pkgs" ]; then echo "lint-fast: no Go packages changed since origin/main"; \
		else echo "lint-fast: fairvet $$pkgs"; FAIRVET_CACHE=$(FAIRVET_CACHE) $(GO) run ./cmd/fairvet $$pkgs; fi; \
	else \
		echo "lint-fast: origin/main unavailable; running the full tree"; \
		FAIRVET_CACHE=$(FAIRVET_CACHE) $(GO) run ./cmd/fairvet $(PKGS); \
	fi

# staticcheck runs only when the pinned binary is available (the tool
# is an external module; offline or hermetic builds skip it with a
# notice rather than failing). Config lives in staticcheck.conf.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		ver=$$(staticcheck -version 2>/dev/null || true); \
		case "$$ver" in \
		*$(STATICCHECK_VERSION)*) ;; \
		*) echo "staticcheck: $$ver (pinned: $(STATICCHECK_VERSION)) — results may drift";; \
		esac; \
		staticcheck $(PKGS); \
	else \
		echo "staticcheck $(STATICCHECK_VERSION) not installed; skipping (see LINTING.md)"; \
	fi

lint: fmt-check vet fairvet staticcheck

ci: lint build test race

# Regenerate every experiment table + CSVs + the BENCH_<date>.json run
# record (see PERFORMANCE.md).
fairbench:
	$(GO) run ./cmd/fairbench -small -out $(OUT)

clean:
	rm -rf $(OUT)
