// The host-cost benchmark is a module of its own so that it builds from
// its own file and never rides the parent module's ./... patterns. Its
// import path sits under mst/, which is what lets it import
// mst/internal/... read-only.
module mst/benchmark

go 1.22

require mst v0.0.0

replace mst => ../
