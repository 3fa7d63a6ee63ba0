// Package nbtinoc is a from-scratch Go reproduction of "Sensor-wise
// methodology to face NBTI stress of NoC buffers" (Zoni & Fornaciari,
// DATE 2013): a cycle-accurate 2D-mesh network-on-chip simulator with
// power-gated virtual-channel buffers, an analytical NBTI aging model,
// process-variation sampling, per-VC degradation sensors, and the
// paper's cooperative pre-VA recovery policies, plus the experiment
// harness that regenerates every table and claim of the evaluation.
//
// The implementation lives under internal/; see README.md for the
// public entry points (cmd/nbtisim, cmd/tables, cmd/nbtisweep,
// cmd/nbtisimd, cmd/tracegen, the cmd/nbtilint determinism analyzers
// and the runnable examples), DESIGN.md for the system inventory,
// per-experiment index and static-analysis contract, and
// EXPERIMENTS.md for the paper-vs-measured record.
package nbtinoc
