// Package repro reproduces and extends "Histogram Domain Ordering for
// Path Selectivity Estimation" (Yakovets et al., EDBT 2018). The module
// root holds only the layer microbenchmarks (bench_test.go); the system
// itself is layered graph → bitset → paths → exec → pathsel with the
// evaluation under internal/experiments and cmd. See ARCHITECTURE.md for
// the full map and bench/README.md for how speed is measured.
package repro
