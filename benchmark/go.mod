// The benchmark is a module of its own so that it builds from its own
// directory; it reaches the engine (internal packages included — its import
// path shares the "repro/" prefix) through the replace below.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
