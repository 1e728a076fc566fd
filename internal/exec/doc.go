// Package exec provides the execution-driven bridge between workload code
// (ordinary Go functions) and the timing models of the simulated cores. Each
// software thread runs as a coroutine (iter.Pull) under its machine's Gate
// and produces one operation at a time — a load, store, atomic, compute
// delay, or syscall — which the core model plays out in simulated time.
// Workload code reads as sequential code: each Context method returns once
// the core reports the operation complete.
//
// Only one coroutine runs at a time, and the running thread drives the
// engine itself until its own operation completes, so a self-completing
// operation costs no switch at all; control passes between threads in
// completion order, which keeps every run bit-identical.
//
// This is the same execution-driven style the paper's gem5 evaluation uses,
// with Go functions standing in for the x86/Alpha-like binaries.
//
//ccsvm:deterministic
package exec
