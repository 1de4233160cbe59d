// The benchmark is a module of its own so the repository's `go build ./...`
// and `go test ./...` neither compile nor depend on it.  Its import path sits
// under the root module's, which is what lets it import kamel/internal/...
module kamel/benchmark

go 1.22

require kamel v0.0.0

replace kamel => ../
