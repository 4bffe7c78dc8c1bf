// Package skewvar is a from-scratch Go reproduction of "A Global-Local
// Optimization Framework for Simultaneous Multi-Mode Multi-Corner Clock
// Skew Variation Reduction" (Han, Kahng, Lee, Li and Nath, DAC 2015).
//
// The repository implements the paper's contribution — an LP-guided global
// clock-network optimization plus a machine-learning-guided local iterative
// optimization that together minimize the sum of clock-skew variations
// across PVT corners — together with every substrate the paper depends on:
// a multi-corner NLDM technology model, a golden static timing analyzer
// (D2M wire delay, PERI slew propagation), a baseline clock-tree
// synthesizer, rectilinear Steiner routing, placement legalization, a
// bounded-variable simplex LP solver, ANN/SVR/HSM regressors, ECO engines,
// and the CLS1/CLS2 benchmark generators of the paper's evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// experiment map, and EXPERIMENTS.md for reproduced-versus-paper results.
// The root-level benchmarks (bench_test.go) regenerate every table and
// figure of the paper's evaluation section.
package skewvar
