GO ?= go

.PHONY: build test race bench check golden vet fmt all

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Each lane engine is single-threaded by design, but the lane-set barrier
# drives them from a worker pool, experiment sweeps fan simulations
# across workers, the event hub fans job and session streams out to
# concurrent subscribers, the resilience layer (journal, retry, fault
# injector) is exercised concurrently by the server suites, and
# rmexperiments runs -remote against an in-process daemon — keep the hot
# paths, their locking, and the sweep cache honest under the race
# detector. CI runs this target; the service-plane packages need no
# separate race step.
race:
	$(GO) test -race ./internal/sim/... ./internal/telemetry/... ./internal/core/... ./internal/experiment/... ./internal/api/... ./internal/session/... ./internal/server/... ./internal/client/... ./internal/policy/... ./internal/resil/... ./cmd/rmexperiments/...

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/telemetry/...

# golden re-runs the determinism harness; use UPDATE=1 after an
# intentional model change to regenerate the snapshots.
golden:
	$(GO) test ./internal/experiment -run Golden $(if $(UPDATE),-update)

# check is the full pre-merge gate: build, vet, all tests, and the
# race-enabled packages.
check: build vet test race

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .
