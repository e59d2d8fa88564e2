// Package hpcvorx is a deterministic simulation-based reproduction of
// "The Evolution of HPC/VORX" (Katseff, Gaglianello, Robinson, PPoPP
// 1990): a local area multicomputer consisting of a pool of simulated
// 68020 processing nodes and host workstations joined by the HPC — a
// modular, hardware-flow-controlled interconnect of twelve-port
// self-routing clusters — and run by the VORX distributed operating
// system.
//
// The library lives under internal/: the simulation kernel (sim), the
// calibrated cost model (m68k), the interconnect (hpc, topo), the
// S/NET baseline (snet, flowctl), the node kernel (kern), the
// communications stack (netif, channels, objmgr, udo, multicast), the
// execution environment (stub, resmgr), the tools (cdb, vdb, oscope),
// the workloads (fft, spice, bitmap, workload), the experiment harness
// (vorxbench), and the system assembly (core). Every exported function
// there has a caller in a program, or an allowlist entry naming the
// test that reproduces a paper claim with it:
// TestExportsHaveProgramCallers (exports_test.go) keeps it so.
//
// See README.md for a tour, DESIGN.md for the architecture and
// calibration notes, and EXPERIMENTS.md for the paper-vs-measured
// record. The benchmarks in bench_test.go regenerate every table and
// figure of the paper's evaluation.
package hpcvorx
