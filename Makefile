GO ?= go

.PHONY: all build vet test race sanitize bench smoke check clean

all: check

build:
	$(GO) build ./...

# vet runs the toolchain's vet followed by droidvet, the project-specific
# analyzer (determinism, pool lifecycles, lock order, snapshot
# immutability, atomic discipline, checkpoint completeness, and goroutine
# lifetimes). All seven passes share one module load and one declaration
# index; droidvet -v prints per-pass wall time. Wire frame layouts are
# pinned by golden bytes in internal/adb/frame_test.go instead.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/droidvet -v ./...

test:
	$(GO) test ./...

# sanitize runs the full suite with the droidfuzz_sanitize build tag:
# checked pools (double-Put / use-after-put panic at the faulting line),
# relation-graph invariant checks after every Learn/Decay, and wire-frame
# round-trip verification of every frame a connection writes.
sanitize:
	$(GO) test -tags droidfuzz_sanitize ./...

# race runs the full suite under the race detector; the daemon package's
# worker-pool and pipelined-run tests are the main customers.
race:
	$(GO) test -race ./...

# bench vets and tests cmd/dfbench, the canonical campaign benchmark. It
# is a module of its own, so `go test ./...` never builds it; run the
# benchmark itself with `bash cmd/dfbench/run.sh` (see cmd/dfbench/README.md).
bench:
	$(GO) -C cmd/dfbench vet .
	$(GO) -C cmd/dfbench test .

# smoke runs every loopback smoke scenario (remote, params, clone, coord),
# each in the plain and the sanitize build; `scripts/smoke.sh SCENARIO`
# runs one.
smoke:
	./scripts/smoke.sh

check: build vet race sanitize

clean:
	$(GO) clean ./...
