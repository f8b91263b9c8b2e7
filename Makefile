# Repo checks — `make check` is what CI and pre-commit should run.

GO ?= go

.PHONY: check fmt vet build test race bench bench-json bench-check bench-batch fuzz docs loc serve-smoke soak router-soak

check: fmt vet build race docs

# Documentation and API-shape gates: every package has a doc comment
# (internal ones citing their DESIGN.md section), every relative
# markdown link resolves, no kernel has a twin entry point (a func X
# beside XTo, XWith, XKern, XFast or XBatch), and every function under
# internal/ is reached by some program (cmd/*, examples/*, perfbench or
# the root package's API) or named with a reason in
# scripts/reach_allow.txt.
docs:
	sh scripts/pkgdoc_lint.sh
	sh scripts/mdlink_check.sh
	sh scripts/twin_lint.sh
	sh scripts/reach_lint.sh

# Non-test Go lines per package, then the total — the figure deletion
# work reports in CHANGES.md. PKGS narrows it, e.g.
# make loc PKGS="internal/serve internal/router".
loc:
	sh scripts/loc.sh $(PKGS)

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# internal/eval replays the full experiment suite (E1..E22) several
# times under the race detector — ~12 min alone on a warm workstation —
# so give the whole-tree run generous headroom.
race:
	$(GO) test -race -timeout 30m ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Regenerate the committed per-experiment cost baseline. Run on a quiet
# machine; ns/op figures are hardware-dependent, allocs/op are exact.
bench-json:
	$(GO) run ./cmd/mmtag-bench -benchjson BENCH_baseline.json -benchlabel baseline -benchreps 3

# Gate the current tree against the committed baseline. allocs/op gets
# a 0.01% tolerance — enough to absorb GC-timing noise (automatic GC
# flushes sync.Pool caches at schedule-dependent points), tight enough
# to catch any per-iteration leak; ns/op gets a generous tolerance
# because the baseline was likely recorded on different hardware.
bench-check:
	$(GO) run ./cmd/mmtag-bench -benchjson - -benchcompare BENCH_baseline.json -benchnstol 50 -benchallocstol 0.01

# Batched-demodulation throughput: the DemodulateBatch microbenchmarks
# plus the per-core "tput" suite rows (wall ns per million tag·symbols)
# gated against the committed baseline.
bench-batch:
	$(GO) test -run NONE -bench DemodulateBatch -benchtime 1x ./internal/ap/
	$(GO) run ./cmd/mmtag-bench -experiment tput -benchjson - -benchcompare BENCH_baseline.json -benchnstol 50 -benchallocstol 0.01

# Local equivalent of CI's serve smoke: boot a run behind -serve,
# scrape a quantile series and one SSE event, shut down via SIGINT.
serve-smoke:
	$(GO) build -race -o /tmp/mmtag-sim ./cmd/mmtag-sim
	/tmp/mmtag-sim -aps 2 -tags 16 -duration 0.05 -serve 127.0.0.1:19856 > /dev/null & \
	pid=$$!; \
	for i in $$(seq 1 100); do \
		curl -sf http://127.0.0.1:19856/healthz > /dev/null 2>&1 && break; sleep 0.1; \
	done; \
	curl -sf http://127.0.0.1:19856/metrics | grep -q 'quantile="0.99"' && \
	curl -s -m 5 http://127.0.0.1:19856/events | head -1 | grep -q '^data: '; \
	rc=$$?; kill -INT $$pid; wait $$pid && [ $$rc -eq 0 ]

# Chaos soak of the continuous-inventory daemon: ~20s of closed-loop
# load at 2x the admission pipeline's capacity under the race detector,
# with a fault-plan hot-swap and an invalid POST /config mid-soak.
# Fails on any 5xx or client timeout (429 sheds are expected), a p99
# blowout, a load-row regression against BENCH_baseline.json, or an
# unclean SIGTERM drain. SOAK_SECONDS=5 shortens a local run.
soak:
	sh scripts/soak_smoke.sh

# Chaos soak of the horizontal service tier: 4 shard daemons behind
# mmtag-router under ~20s of router-aware closed-loop load, with one
# shard SIGKILLed and restarted mid-soak (partial service must hold:
# only 2xx/207/429 ever reach the client) and a rolling config reload —
# one invalid (rejected fleet-wide) and one valid (applied shard by
# shard). The router-mix load row gates against BENCH_baseline.json.
# SOAK_SECONDS=5 shortens a local run.
router-soak:
	sh scripts/router_smoke.sh

# Short smoke runs of every fuzz target (Go only fuzzes one target per
# invocation). CI's fuzz smoke step runs this list.
fuzz:
	$(GO) test -run xxx -fuzz FuzzDeriveSeed -fuzztime 10s ./internal/par/
	$(GO) test -run xxx -fuzz FuzzTraceJSONL -fuzztime 10s ./cmd/mmtag-trace/
	$(GO) test -run xxx -fuzz FuzzTierSelection -fuzztime 10s ./internal/link/
	$(GO) test -run xxx -fuzz FuzzLinkBudgetOutcome -fuzztime 10s ./internal/link/
	$(GO) test -run xxx -fuzz FuzzOffsetImmunePeak -fuzztime 10s ./internal/dsp/
	$(GO) test -run xxx -fuzz FuzzTagIDParity -fuzztime 10s ./internal/router/
	$(GO) test -run xxx -fuzz FuzzShardTagsMerge -fuzztime 10s ./internal/router/
	$(GO) test -run xxx -fuzz FuzzBlockedAt -fuzztime 10s ./internal/sim/
	$(GO) test -run xxx -fuzz FuzzParseSpec -fuzztime 10s ./internal/fault/
