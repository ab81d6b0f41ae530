// The benchmark is a module of its own so the root module's
// `go build ./... && go test ./...` never compiles it. The import path
// stays under dyflow/ so it may use dyflow/internal/...
module dyflow/bench

go 1.22

require dyflow v0.0.0

replace dyflow => ../
