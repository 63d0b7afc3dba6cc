# Build and verification entry points. `make verify` is the gate every
# change must pass (ROADMAP.md): gofmt, compile, vet, staticcheck (when
# installed), the twca-lint analyzer suite, the full test suite under
# the race detector, and vet + tests of the svcbench benchmark module.
# svcbench is a nested module, so the root `go build ./...` never
# compiles it; without the extra step a service API change could break
# the benchmark unnoticed.

GO ?= go

# Pinned staticcheck release: CI installs exactly this version, and a
# local `go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)`
# reproduces CI's verdict. Bump deliberately.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test lint lint-fix lint-sarif verify policy-matrix bench bench-check svcbench-smoke chaos cluster-smoke fuzz-smoke serve print-staticcheck-version

# print-staticcheck-version lets CI install exactly the pinned release
# without duplicating the version string in the workflow file.
print-staticcheck-version:
	@echo $(STATICCHECK_VERSION)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the repository's own analyzer suite (internal/analyzers,
# cmd/twca-lint): determinism, saturation and soundflow, plus the
# suppression check on //twcalint:ignore waivers. It needs only the Go
# toolchain — no module dependencies. Exit 1 means findings, 3 means a
# package failed to load (and was not checked).
lint:
	$(GO) run ./cmd/twca-lint ./...

# lint-fix applies the machine-applicable suggested fixes (saturating
# helper rewrites, collect-then-sort) in place, then
# reports what remains. A no-op on a clean tree.
lint-fix:
	$(GO) run ./cmd/twca-lint -fix ./...

# lint-sarif writes the findings as SARIF 2.1.0 for GitHub code
# scanning; exit 1 (findings exist) still produces the report, so CI
# uploads it before failing.
lint-sarif:
	$(GO) run ./cmd/twca-lint -format=sarif ./... > twca-lint.sarif || [ $$? -eq 1 ]

verify:
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed on:"; gofmt -l .; exit 1; }
	$(GO) build ./...
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi
	$(GO) run ./cmd/twca-lint ./...
	$(GO) test -race ./...
	cd svcbench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) policy-matrix

# policy-matrix runs the cross-policy soundness property under the race
# detector: for every analyzable scheduling policy (spp, np-spp, edf)
# and every case-study chain, the analytic WCL and dmm(k) bounds must
# dominate a simulator running the same policy, and an explicit
# policy=spp must be byte-identical to the zero value. The sim step also
# runs the mapped tests: a mapped run on one resource equals the
# unmapped run, same-seed mapped runs are identical, and a canceled
# context stops a mapped run.
policy-matrix:
	$(GO) test -race -count=1 -run 'TestPolicy' .
	$(GO) test -race -count=1 ./internal/policy/
	$(GO) test -race -count=1 -run 'Policy|EDF|JCL|NonPreemptive|Mapped' ./internal/sim/

bench:
	$(GO) test -run NONE -bench . -benchtime 1x -benchmem ./...
	$(GO) run ./cmd/twca-sensitivity -chain sigma_c -bench-out BENCH_sensitivity.json >/dev/null

# bench-check guards the incremental engine's edge: it reruns the
# sensitivity benchmark and fails when the speedup of a hot-store repeat
# (every probe an exact-coordinate hit in the warm store) over a cold
# run, measured on this machine, fell below half the one committed in
# BENCH_sensitivity.json. Speedups (not wall-clock times) are compared,
# so the gate is host-independent. CI runs this in the bench-smoke job.
bench-check:
	$(GO) run ./cmd/twca-sensitivity -chain sigma_c -bench-check BENCH_sensitivity.json >/dev/null

# svcbench-smoke runs every service-benchmark workload for three
# seconds (seed 1, untraced). svcbench exits 1 on any failed request or
# oracle mismatch, and its oracle byte-compares every sensitivity
# response, effort counters included, against a library query through
# AnalysisRequest.SensitivityWarm. Each workload's allocs_per_req, read
# from the last (JSON) line svcbench prints, must also stay at or below
# its ceiling in svcbench-ceilings.txt. Latency is printed, not gated.
# CI runs this in the svcbench-smoke job.
svcbench-smoke:
	@mkdir -p .bench_build
	@for w in cold-sweep hot-fleet sensitivity-sweep; do \
		bash svcbench/run.sh --workload $$w --seed 1 --seconds 3 --trace 0 > .bench_build/smoke-$$w.out; \
		s=$$?; cat .bench_build/smoke-$$w.out; [ $$s -eq 0 ] || exit 1; \
		tail -n 1 .bench_build/smoke-$$w.out | awk -v w=$$w -v f=svcbench-ceilings.txt ' \
			BEGIN { while ((getline line < f) > 0) if (split(line, a) >= 2 && a[1] == w) c = a[2] } \
			match($$0, /"allocs_per_req":[{]"value":[^,}]+/) { v = substr($$0, RSTART + 26, RLENGTH - 26) + 0; found = 1 } \
			END { \
				if (c == "") { printf "%s: no allocs_per_req ceiling in %s\n", w, f; exit 1 } \
				if (!found) { printf "%s: no allocs_per_req in the last line of svcbench output\n", w; exit 1 } \
				printf "%s: allocs_per_req %.1f, ceiling %s\n", w, v, c; \
				if (v > c + 0) { printf "%s: allocs_per_req exceeds its ceiling\n", w; exit 1 } \
			}' || exit 1; \
	done

# chaos runs the fault-injection suites under the race detector: the
# service chaos suite (hundreds of randomized requests with panics,
# errors and budget exhaustions armed at every seam) plus the seam
# tests in the pipeline packages. See DESIGN.md §11. The chaos suite
# runs three times: its faults interleave differently on each run, so
# repeats reach more of them.
chaos:
	$(GO) test -race -count=3 -run 'TestChaosSuite' ./internal/service/
	$(GO) test -race -count=1 -run 'TestDrain|TestDegraded|TestTransientDegradationNotKept|TestWarmNominalSeamFallback' ./internal/service/
	$(GO) test -race -count=1 ./internal/faultinject/ ./internal/parallel/ ./internal/degrade/
	$(GO) test -race -count=1 -run 'Degraded|Injection|Inject' ./internal/ilp/ ./internal/twca/ ./internal/latency/ ./internal/sensitivity/

# cluster-smoke stands up a 3-replica in-process fleet (real listeners,
# shared consistent-hash ring) under the race detector and checks the
# sharded-store acceptance properties: a 50-system campaign computes
# every artifact exactly once fleet-wide, a warm repeat adds no store
# miss, ILP node or decode and stays under an allocation ceiling,
# concurrent identical queries coalesce to one computation, a repeated
# relayed read decodes its system on neither hop, and killing a replica
# mid-campaign completes the stream with byte-exact documents against
# single-node ground truth. It also runs relay retry and fallback under
# injected faults and the one-source down-state oracle.
cluster-smoke:
	$(GO) test -race -count=1 -run 'TestCluster' ./internal/service/

# fuzz-smoke gives each fuzz target a short adversarial run (the seed
# corpora also run as plain tests under `make test`).
fuzz-smoke:
	$(GO) test -fuzz FuzzOptionsValidate -fuzztime 10s -run NONE .
	$(GO) test -fuzz FuzzLatencyOptionsValidate -fuzztime 10s -run NONE .
	$(GO) test -fuzz FuzzDecodeRequest -fuzztime 10s -run NONE ./internal/service/
	$(GO) test -fuzz FuzzDecodeEnvelope -fuzztime 10s -run NONE ./internal/service/
	$(GO) test -fuzz FuzzOmegaJSON -fuzztime 10s -run NONE ./internal/schema/
	$(GO) test -fuzz FuzzDMMHead -fuzztime 10s -run NONE ./internal/service/

serve:
	$(GO) run ./cmd/twca-serve
