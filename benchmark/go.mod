// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` never compiles or runs it; the hsfsim/
// path prefix is what lets it import hsfsim/internal/... from outside.
module hsfsim/benchmark

go 1.22

require hsfsim v0.0.0

replace hsfsim => ../
