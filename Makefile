.PHONY: verify test test-short fault bench-check lint cluster-test tok-test trace-test load-test

verify: ## gofmt + vet + build + full race-enabled test suite
	./scripts/verify.sh

lint: ## the same staticcheck invocation CI runs (go install honnef.co/go/tools/cmd/staticcheck@2024.1.1 first)
	staticcheck ./...

cluster-test: ## sharding + replication, race-enabled (local shortcut: a subset of `make verify`): all of internal/cluster, the cmd/kamel cluster/replica/fan-out/stitching suites, parallel rebuild
	go test -race ./internal/cluster/...
	go test -race -run 'Cluster' ./cmd/kamel/
	go test -race -run 'IngestParallel' ./internal/pyramid/

trace-test: ## distributed tracing + SLO suite, race-enabled (local shortcut: a subset of `make verify`): traceparent propagation, trace store, exemplars, SLO burn triggers, and the 3-node stitching acceptance test
	go test -race -run 'Trace|Traceparent|Exemplar|SLO' ./internal/obs/ ./internal/cluster/ ./cmd/kamel/

tok-test: ## tokenizer suite: pack/unpack properties, adaptive level bits, spec persistence + fault injection, anti-entropy hash gate (race-enabled), then the training-heavy golden-parity and adaptive lifecycle tests (no race: they train BERT models; core's concurrency is raced in `make verify`)
	go test -race ./internal/tokenizer/ ./internal/vocab/
	go test -race -run 'Pack' ./internal/grid/
	go test -race -run 'Tokenizer' ./internal/cluster/
	go test -race -run 'TrainFanoutSpecConvergence' ./cmd/kamel/
	go test -timeout 20m -run 'TestGoldenParityFixedTokenizer|TestAdaptiveTokenizerEndToEnd|TestTokenizerSpecCorruption' ./internal/core/

test:
	go test ./...

test-short:
	go test -short ./...

fault: ## fault-injection suite: kill-points, corruption, overload
	go test -run Fault -count=2 ./...

bench-check: ## vet + test the benchmark module (its own go.mod), so drift in the internal/* packages it imports is caught at PR time
	cd benchmark && go vet ./... && go test ./...

load-test: ## CI's loadgen smoke: a short open-loop sweep against an in-process node, failing on any internal error
	go test -race -run 'TestLoadgenSmoke' -v ./cmd/kamel/
